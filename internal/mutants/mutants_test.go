// Package mutants holds the mutation checks: each row puts one known
// defect back into a copy of the module and names the test that must
// fail on it. A check counts only once it has been seen to fail.
//
//	make mutants   # go test ./internal/mutants -run TestMutants -args -mutants
//
// Without -mutants, TestMutants only checks that every row's fragment
// still occurs exactly once, so a change to the code under a row shows
// up in the ordinary test run.
package mutants

import (
	"cmp"
	"flag"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var run = flag.Bool("mutants", false, "copy the module and run each row's killer test against its mutant")

// mutant is one row: in file of package pkg, fragment (which must occur
// exactly once) is replaced by mutant, pkg must still build, and the
// killer test, run runs times in package killerPkg (pkg if empty), must
// fail, printing output if that is set.
type mutant struct {
	pkg, file         string
	fragment, mutant  string
	killer, killerPkg string
	runs              int
	output            string
	defect            string
}

// lintRow is a row whose defect only an fslint analyzer sees: the
// violation goes back into real code, and TestRepoLintClean must report
// it as that analyzer's finding.
func lintRow(analyzer, pkg, file, fragment, violation, defect string) mutant {
	return mutant{
		pkg: pkg, file: file, fragment: fragment, mutant: violation,
		killer: "TestRepoLintClean", killerPkg: "internal/analysis", runs: 1,
		output: "[" + analyzer + "]", defect: defect,
	}
}

var mutants = []mutant{
	{
		pkg: "internal/index", file: "index.go",
		fragment: `		dst = append(dst, FieldValue{Path: doc.FieldPath(k), Value: v})
		if v.Kind() == doc.KindMap {
			dst = flattenMap(dst, k, v.MapVal())
		}
`,
		mutant: `		if v.Kind() == doc.KindMap && len(v.MapVal()) > 0 {
			dst = flattenMap(dst, k, v.MapVal())
		} else {
			dst = append(dst, FieldValue{Path: doc.FieldPath(k), Value: v})
		}
`,
		killer: "TestChaosSmoke", killerPkg: "internal/chaos", runs: 1,
		defect: "a map is indexed by its leaves only, so a query that orders or filters by a map misses it",
	},
	{
		pkg: "internal/query", file: "plan.go",
		fragment: `			if found && !doc.Equal(v, p.Value) {
				return v, false
`,
		mutant: `			if found && !doc.Equal(v, p.Value) {
				return v, true
`,
		killer: "FuzzQueryAgainstNaive", runs: 1,
		defect: "of two equalities on one path that disagree, the first is planned, so a query that can match nothing returns documents",
	},
	{
		pkg: "internal/backend", file: "read.go",
		fragment: `	tok.readTS, err = readRetained(db, tok.readTS, func(ts truetime.Timestamp) error {
		var xerr error
		res, xerr = plan.Execute(ctx, b.snapshot(db, ts), tok.pos)
		return xerr
	})
`,
		mutant: `	tok.readTS = strongIfZero(db, tok.readTS)
	res, err = plan.Execute(ctx, b.snapshot(db, tok.readTS), tok.pos)
`,
		killer: "TestReadBelowRetentionIsRefused", runs: 1,
		defect: "a query page at a timestamp retention no longer covers answers without the versions it dropped",
	},
	{
		pkg: "internal/backend", file: "read.go",
		fragment: `		at, rerr := readRetained(db, readTS, func(ts truetime.Timestamp) error {
			var gerr error
			d, gerr = b.getAt(ctx, db, name, ts)
			return gerr
		})
`,
		mutant: `		at := strongIfZero(db, readTS)
		var rerr error
		d, rerr = b.getAt(ctx, db, name, at)
`,
		killer: "TestReadBelowRetentionIsRefused", runs: 1,
		defect: "a get at a timestamp retention no longer covers calls a document that existed then absent",
	},
	{
		pkg: "internal/doc", file: "document.go",
		fragment: `		if strings.IndexByte(k, '.') >= 0 {`,
		mutant:   `		if false {`,
		killer:   "TestDottedFieldNamesRefused", killerPkg: "cmd/firestore-server/server", runs: 1,
		defect: "a field named \"m.x\" is stored, and indexed at the path of field x of a map m, which doc.Get does not read",
	},
	{
		pkg: "internal/frontend", file: "frontend.go",
		fragment: `	c.f.cache.Subscribe(c, c.dbID, rq.q, readTS, subID)
	c.mu.Lock()
	live := c.queries[subID] == rq
`,
		mutant: `	_, rangeID := c.f.cache.Subscribe(c, c.dbID, rq.q, readTS, subID)
	c.mu.Lock()
	rq.rangeID = rangeID
	live := c.queries[subID] == rq
`,
		killer: "TestFirstWatermarkArmsTheTarget", runs: 3,
		defect: "a target counts its range's subscriber watermarks before its own first one, so it advances past its replayed update",
	},
	{
		pkg: "cmd/firestore-server/server", file: "json.go",
		fragment: `	case json.Number:
		if !strings.ContainsAny(string(x), ".eE") {
			i, err := strconv.ParseInt(string(x), 10, 64)
			if err != nil {
				return doc.Null(), status.Errorf(status.InvalidArgument, "server", "integer %s is outside the 64-bit range", x)
			}
			return doc.Int(i), nil
		}
		f, err := x.Float64()
`,
		mutant: `	case json.Number:
		f, err := x.Float64()
		if err == nil && f == float64(int64(f)) && -(1<<53) < f && f < 1<<53 {
			return doc.Int(int64(f)), nil
		}
`,
		killer: "TestJSONNumbersOverHTTP", runs: 1,
		defect: "a JSON number is read as a float64, so 9007199254740993 is stored as the Double 9007199254740992 and 1.0 as an Int",
	},
	{
		pkg: "cmd/firestore-server/server", file: "server.go",
		fragment: `				"at":      ev.At,
`,
		mutant: ``,
		killer: "TestListenSSE", runs: 1,
		defect: "a listen event leaves out where its documents go, so a client orders them by their values",
	},
	{
		pkg: "cmd/firestore-server/server", file: "json.go",
		fragment: `	if _, err := dec.Token(); err != io.EOF {
		return status.New(status.InvalidArgument, "server", "unexpected data after the JSON value")
	}
`,
		mutant: ``,
		killer: "TestTrailingBytesRefused", runs: 1,
		defect: "a body's first JSON value is read and what follows it ignored, so {\"a\": 1} trailing garbage stores {\"a\": 1}",
	},
	{
		pkg: "cmd/firestore-server/server", file: "server.go",
		fragment: `	src, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
`,
		mutant: `	src, err := io.ReadAll(r.Body)
`,
		killer: "TestRulesBodyCap", runs: 1,
		defect: "a rules body is read whole, so source over 1 MiB deploys",
	},
	{
		pkg: "internal/rules", file: "parser.go",
		fragment: `	{"||"},
	{"&&"},
`,
		mutant: `	{"&&"},
	{"||"},
`,
		killer: "TestBinaryPrecedence", runs: 1,
		defect: "&& binds looser than ||, so a || b && c reads as (a || b) && c",
	},
	{
		pkg: "cmd/firestore-server/server", file: "server.go",
		fragment: `		if op != "" {
`,
		mutant: `		if !strings.HasSuffix(r.URL.Path, "/listen") {
`,
		killer: "TestRootSpanCodes", runs: 1,
		defect: "the ingress tells the listen stream by its path's suffix, so a document named listen gets no deadline and no root span",
	},
	{
		pkg: "cmd/firestore-server/server", file: "server.go",
		fragment: `			defer func() { span.End(err) }()
`,
		mutant: `			defer span.End(nil)
`,
		killer: "TestRootSpanCodes", runs: 1,
		defect: "a root span ends without the handler's error, so a refused request is recorded as OK",
	},
	{
		pkg: "internal/doc", file: "document.go",
		fragment: `	if depth > maxValueDepth {
		return ErrTooDeep
	}
`,
		mutant: ``,
		killer: "TestWritesReadBack", killerPkg: "cmd/firestore-server/server", runs: 1,
		defect: "a write nests a value deeper than the decoder reads, so the server acknowledges a document it cannot read back",
	},
	{
		pkg: "cmd/firestore-server/server", file: "json.go",
		fragment: `	return doc.Null(), true, status.Errorf(status.InvalidArgument, "server", "%s does not hold its type: %v", tag, raw)
`,
		mutant: `	return doc.Null(), false, nil
`,
		killer: "TestBadRequests", runs: 1,
		defect: "a tag that does not hold its type is stored as a one-key map, which GET returns looking like a tagged value",
	},
	{
		pkg: "internal/rules", file: "parser.go",
		fragment: `	if p.depth == maxNesting {
		return p.errf("nested more than %d deep", maxNesting)
	}
`,
		mutant: ``,
		killer: "TestNestingCap", runs: 1,
		defect: "the parser recurses without bound, so a rules body of '(' overflows the stack and kills the server",
	},
	{
		pkg: "internal/transport", file: "client.go",
		fragment: `		if h.id == id {
			return body, h.remoteError()
		}
`,
		mutant: `		return body, h.remoteError()
`,
		killer: "TestAbandonedResponseNeverReachesALaterCall", runs: 1,
		defect: "a call takes the first response on its connection as its own, so the late answer to an abandoned call answers the next one",
	},
	{
		pkg: "internal/transport", file: "pool.go",
		fragment: `		for _, idle := range pp.idle {
			delete(pp.conns, idle)
			idle.Close()
		}
		pp.unreplaced += 1 + len(pp.idle)
		pp.idle = nil
`,
		mutant: `		pp.unreplaced++
`,
		killer: "TestPoolRecoversFromPeerRestart", runs: 1,
		defect: "a broken connection leaves its peer's idle connections in the pool, so a peer that dropped them fails one call per idle connection",
	},
	{
		pkg: "internal/rules", file: "parser.go",
		fragment: `	if _, ok := e.(*UnaryExpr); !ok {`,
		mutant:   `	if true {`,
		killer:   "TestUnaryUnderPostfix", runs: 1,
		defect: "a unary operand of a postfix prints bare, so (!a).f prints as !(a).f, which reads back as !(a.f)",
	},
	{
		pkg: "internal/cluster", file: "wire.go",
		fragment: `			if f&^(flagLo|flagHi) != 0 {`,
		mutant:   `			if false {`,
		killer:   "TestMalformedRequests", runs: 1,
		defect: "a scan or chains request with a flag bit the wire does not have is served, so one asking for a descending scan gets rows in ascending order",
	},
	{
		pkg: "internal/cluster", file: "wire.go",
		fragment: `	if b != nil && !set {`,
		mutant:   `	if false {`,
		killer:   "TestMalformedRequests", runs: 1,
		defect: "a scan or chains bound whose flag is clear but whose field holds bytes is served, so a request the flags call unbounded is answered for a range",
	},
	{
		pkg: "cmd/firestore-server/server", file: "server.go",
		fragment: `		body, err = encode(page)
`,
		mutant: `		body, _ = encode(page)
`,
		killer: "TestReplyUnencodablePage", runs: 1,
		defect: "reply drops the encoder's error, so a page with no JSON form answers 200 with a bare newline and its root span records OK",
	},
	{
		pkg: "cmd/firestore-server/server", file: "json.go",
		fragment: `		if s := nonFinite(v.DoubleVal()); s != "" {
			return map[string]any{"$double": s}
		}
`,
		mutant: ``,
		killer: "TestNonFiniteValuesOverHTTP", runs: 1,
		defect: "a NaN or infinite double is written as a number JSON does not have, so every page that holds one answers 500",
	},
	{
		pkg: "internal/storage", file: "storage.go",
		fragment: `	for i := len(rows) - 1; ok && i >= 0; i-- {`,
		mutant:   `	for i := 0; ok && i < len(rows); i++ {`,
		killer:   "TestEngineConformance", killerPkg: "internal/cluster", runs: 1,
		defect: "the one descending scan delivers its rows first to last, so every engine answers a descending scan in ascending order",
	},
	lintRow("statusdiscipline", "internal/backend", "backend.go",
		`ErrUnavailable = status.New(status.Unavailable, "backend", "real-time cache unavailable")`,
		`ErrUnavailable = errors.New("real-time cache unavailable")`,
		"a request-path sentinel without a status code classifies as Internal"),
	lintRow("lockdiscipline", "internal/frontend", "frontend.go",
		`	c.mu.Lock()
	rq, ok := c.targets[targetID]
	if ok {
		c.forgetLocked(rq)
	}
	c.mu.Unlock()
`,
		`	rq, ok := c.targets[targetID]
	if ok {
		c.forgetLocked(rq)
	}
`,
		"StopListening calls forgetLocked without the connection's mutex"),
	lintRow("lockdiscipline", "internal/frontend", "frontend.go",
		`	rq, ok := c.targets[targetID]
	if ok {
		c.forgetLocked(rq)
	}
	c.mu.Unlock()
`,
		`	rq, ok := c.targets[targetID]
	c.mu.Unlock()
	if ok {
		c.forgetLocked(rq)
	}
`,
		"StopListening releases the connection's mutex before it calls forgetLocked"),
	lintRow("ctxdiscipline", "internal/frontend", "frontend.go",
		`		if err := c.build(c.ctx, rq); err != nil {`,
		`		if err := c.build(context.Background(), rq); err != nil {`,
		"a rebuild runs under a fresh root context, so it outlives its connection and drops its db label"),
	lintRow("clockdiscipline", "internal/spanner", "locks.go",
		`			waiting, start = true, lt.clock.Now().Latest`,
		`			waiting, start = true, truetime.Timestamp(time.Now().UnixNano())`,
		"a lock wait's deadline is read from the wall clock, so a Manual clock does not drive it"),
	lintRow("obsdiscipline", "internal/rtcache", "rtcache.go",
		`watermarkLag: reg.Gauge("rtcache.watermark_lag_seconds", nil),`,
		`watermarkLag: reg.Gauge(fmt.Sprintf("rtcache.watermark_lag_seconds.%d", cfg.Ranges), nil),`,
		"a metric name is formatted at run time, one family per configuration"),
	lintRow("iodiscipline", "internal/cluster", "harness.go",
		`	before := time.Now()
	cmd := exec.Command(os.Args[0])
`,
		`	os.MkdirAll(filepath.Join(h.baseDir, name), 0o755) //nolint:errcheck
	before := time.Now()
	cmd := exec.Command(os.Args[0])
`,
		"the harness makes a peer's data directory itself, outside the storage engine"),
	lintRow("netdiscipline", "internal/cluster", "harness.go",
		`	"firestore/internal/status"
)

// Environment variables carrying a tablet-server child's configuration
// across the re-exec boundary.
const (
	envChild  = "FIRESTORE_TABLET_CHILD"
	envJoin   = "FIRESTORE_TABLET_JOIN"
	envName   = "FIRESTORE_TABLET_NAME"
	envDir    = "FIRESTORE_TABLET_DIR"
	envKind   = "FIRESTORE_TABLET_KIND"
	envMemCap = "FIRESTORE_TABLET_MEMCAP"
)

// MaybeRunTabletChild is the re-exec hook: call it first thing in main()
// or TestMain(). If the process was spawned by a Harness (the
// FIRESTORE_TABLET_CHILD environment variable is set), it runs a tablet
// server until the parent releases it and never returns; otherwise it is
// a no-op.
func MaybeRunTabletChild() {
	if os.Getenv(envChild) == "" {
		return
	}
`,
		`	"firestore/internal/status"
	"net"
)

const (
	envChild  = "FIRESTORE_TABLET_CHILD"
	envJoin   = "FIRESTORE_TABLET_JOIN"
	envName   = "FIRESTORE_TABLET_NAME"
	envDir    = "FIRESTORE_TABLET_DIR"
	envKind   = "FIRESTORE_TABLET_KIND"
	envMemCap = "FIRESTORE_TABLET_MEMCAP"
)

func MaybeRunTabletChild() {
	if os.Getenv(envChild) == "" {
		return
	}
	if conn, err := net.DialTimeout("tcp", os.Getenv(envJoin), time.Second); err == nil {
		conn.Close() // the coordinator is up: join it
	}
`,
		"a tablet-server child dials its coordinator on a raw socket, outside the transport"),
}

func TestMutants(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mutants {
		src, err := os.ReadFile(filepath.Join(root, m.pkg, m.file))
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(src), m.fragment); n != 1 {
			t.Errorf("%s/%s: the fragment of %q occurs %d times, want 1", m.pkg, m.file, m.defect, n)
		}
	}
	if !*run || t.Failed() {
		return
	}
	copyRoot := t.TempDir()
	if err := copyModule(root, copyRoot); err != nil {
		t.Fatal(err)
	}
	for _, m := range mutants {
		path := filepath.Join(copyRoot, m.pkg, m.file)
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Replace(string(src), m.fragment, m.mutant, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
		// Killed means the mutant builds and the killer ran and failed:
		// a mutant that does not build proves nothing.
		build := exec.Command("go", "build", "./"+m.pkg)
		build.Dir = copyRoot
		if out, err := build.CombinedOutput(); err != nil {
			t.Errorf("%s/%s: the mutant does not build: %v\n%s", m.pkg, m.file, err, out)
		}
		pkg := cmp.Or(m.killerPkg, m.pkg)
		cmd := exec.Command("go", "test", "-count="+strconv.Itoa(m.runs), "-run", "^"+m.killer+"$", "./"+pkg)
		cmd.Dir = copyRoot
		out, err := cmd.CombinedOutput()
		switch {
		case err == nil:
			t.Errorf("%s/%s survived %s (%d run(s)): %s\n%s", m.pkg, m.file, m.killer, m.runs, m.defect, out)
		case !strings.Contains(string(out), "--- FAIL: "+m.killer):
			t.Errorf("%s/%s: %s did not run to a failure: %v\n%s", m.pkg, m.file, m.killer, err, out)
		case !strings.Contains(string(out), m.output):
			t.Errorf("%s/%s: %s failed without printing %q\n%s", m.pkg, m.file, m.killer, m.output, out)
		default:
			t.Logf("%s/%s killed by %s: %s", m.pkg, m.file, m.killer, m.defect)
		}
		if err := os.WriteFile(path, src, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// copyModule copies the module's sources under root to dst, leaving out
// version control and build output.
func copyModule(root, dst string) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" || d.Name() == ".bench_build" {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
}
