// Package chaos runs named fault-injection scenarios against a full
// in-process region and checks the system's end-to-end invariants while
// faults fire. `go test ./internal/chaos` is its runner: each scenario is
// a subtest of TestAllScenarios, and -seed replays any of them at
// another seed.
//
// A scenario is a seeded workload (writers setting and deleting the
// documents of a small keyspace, optional real-time listeners, a trigger
// handler recording deliveries) plus a fault schedule armed through
// internal/fault. Because fault firing is a pure function of (seed,
// site, hit index), the same seed reproduces the same fault schedule run
// after run; the workload itself is driven by rand sources derived from
// the same seed.
//
// The oracle is query.Evaluate: a query's answer at a timestamp is the
// evaluator (then the query's projection) over the bare collection as
// the region reads it at that timestamp. The invariants:
//
//   - listener-snapshots: every snapshot a listener receives, folded by
//     the server's positions, equals the oracle at the snapshot's
//     timestamp, document for document and field for field, in order
//     (§IV-D4); every listener has at least one snapshot checked.
//   - listener-convergence: once the faults stop, every listener's view
//     reaches the oracle at a fresh timestamp (reset-and-requery must
//     heal any stream the faults disrupted).
//   - trigger-at-least-once: every committed write is observed by the
//     trigger handler at least once (the commit's hand-off to the
//     triggers may redeliver, never lose).
//   - external-consistency: a strong read issued after a commit returns
//     a document at least as new as that commit (§IV-C TrueTime commit
//     wait).
//   - validation-clean / repair-zero: backend.ValidateDatabase reports
//     no index<->document divergence and RepairIndexes finds nothing to
//     fix.
//   - expectation checks: scenarios that are supposed to trip
//     out-of-sync or reset-and-requery assert the respective counters
//     actually moved, so the faults provably exercised the recovery
//     paths rather than missing them.
package chaos

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"firestore/internal/backend"
	"firestore/internal/cluster"
	"firestore/internal/core"
	"firestore/internal/doc"
	"firestore/internal/fault"
	"firestore/internal/frontend"
	"firestore/internal/index"
	"firestore/internal/keyviz"
	"firestore/internal/obs"
	"firestore/internal/query"
	"firestore/internal/storage"
	"firestore/internal/triggers"
	"firestore/internal/truetime"
	"firestore/internal/ycsb"
)

// dbID is the database every scenario runs against.
const dbID = "chaos"

// collection holds the scenario keyspace. A single top-level collection
// maps to one rtcache range, which concentrates faults like
// changelog-crash on the data under test.
const collection = "/kv"

// The workload of every scenario: a preload sets each of docs
// documents, then writers goroutines commit writes writes each. A
// cluster scenario runs clusterPeers tablet-server processes; a durable
// one caps each tablet's memtable at memtableCap bytes, tiny on purpose,
// so that the workload goes through segment flush and compaction.
const (
	docs         = 16
	writers      = 4
	writes       = 10
	clusterPeers = 2
	memtableCap  = 256
)

// Scenario is one named chaos experiment: a workload shape plus the
// faults armed while it runs and the recovery paths it is expected to
// trip.
type Scenario struct {
	Name string
	Doc  string
	// Faults are armed (in order) after the preload, before writers
	// start.
	Faults []fault.Spec

	// Listeners is the number of real-time listener connections; each
	// holds one target per query of listenQueries.
	Listeners int

	// ExpectOutOfSync asserts the rtcache reported at least one
	// out-of-sync reset (§IV-D4).
	ExpectOutOfSync bool
	// ExpectRequery asserts the frontend re-executed at least one
	// query (reset-and-requery).
	ExpectRequery bool
	// ExpectKeyVizCrashFidelity asserts keyviz collector fidelity for
	// crash faults: the crashed range appears as an event on the keyviz
	// timeline, the injected fault itself is on the same timeline, and
	// the crash victim is the top-scored range cell in the window
	// covering the crash (the scenario keyspace is one collection, so
	// one range carries all the heat).
	ExpectKeyVizCrashFidelity bool

	// Cluster runs the region's storage on clusterPeers tablet-server
	// child processes behind a cluster coordinator: every engine op
	// crosses the wire transport, so the transport.* fault sites are on
	// the path and SIGKILL of a child is a real process crash.
	// Options.Dir roots per-peer data directories (disk children) and the
	// test binary's TestMain must call cluster.MaybeRunTabletChild()
	// first. Children host disk engines when Durable is set, mem engines
	// otherwise (mem survives reconnects, not kills).
	Cluster bool
	// KillPeer SIGKILLs one tablet-server process once, mid-run, after
	// roughly half the writes have been issued, then respawns it under
	// the same name and data directory. Acknowledged commits must
	// survive by WAL roll-forward and the peer must rejoin and reclaim
	// its tablets. Requires Cluster and Durable.
	KillPeer bool

	// Durable backs the region's Spanner pool with the disk engine
	// (WAL + memtable + segments) rooted at Options.Dir, and adds a
	// restart-durability invariant: after the run, the whole region is
	// closed and reopened from disk and must recover the exact
	// authoritative state with clean validation.
	Durable bool
	// ExpectRecoveries asserts at least one tablet engine crashed and
	// was recovered (WAL replay) during the run.
	ExpectRecoveries bool
	// ExpectFlushes asserts at least one memtable flushed to a segment.
	ExpectFlushes bool
	// ExpectCompactions asserts at least one segment compaction ran.
	ExpectCompactions bool
}

// Options tune one Run.
type Options struct {
	// Seed drives both the fault schedule and the workload. The same
	// seed reproduces the same run.
	Seed int64
	// Dir roots a Durable or Cluster scenario's on-disk state. The chaos
	// runner itself never touches the filesystem (all file I/O lives in
	// internal/storage), so callers supply a scratch directory such as
	// t.TempDir().
	Dir string
	// Log, when set, receives progress lines.
	Log func(format string, args ...any)
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		o.Log(format, args...)
	}
}

// Invariant is one post-run check.
type Invariant struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// Report is the outcome of one scenario run.
type Report struct {
	Scenario   string `json:"scenario"`
	Seed       int64  `json:"seed"`
	Commits    int    `json:"commits"`
	CommitErrs int    `json:"commit_errs"`
	OutOfSyncs int64  `json:"out_of_syncs"`
	Requeries  int64  `json:"requeries"`
	// Checked counts the listeners' snapshots compared with the oracle;
	// Unchecked those whose oracle read failed under a fault.
	Checked   int `json:"checked"`
	Unchecked int `json:"unchecked"`
	// Storage-engine activity over the run (durable scenarios).
	Recoveries  int64 `json:"recoveries,omitempty"`
	Flushes     int64 `json:"flushes,omitempty"`
	Compactions int64 `json:"compactions,omitempty"`
	// Injected counts fault firings per site over the run.
	Injected map[string]int64 `json:"injected"`
	// Schedules holds, per site, the first 64 hit decisions as a
	// '0'/'1' string — a fingerprint proving determinism by seed.
	Schedules  map[string]string `json:"schedules"`
	Invariants []Invariant       `json:"invariants"`
	Pass       bool              `json:"pass"`
}

func (r *Report) check(name string, ok bool, format string, args ...any) {
	r.Invariants = append(r.Invariants, Invariant{
		Name:   name,
		OK:     ok,
		Detail: fmt.Sprintf(format, args...),
	})
	if !ok {
		r.Pass = false
	}
}

var priv = backend.Principal{Privileged: true}

// listenQueries are the queries every listener connection holds: the
// whole collection, a limit over a descending order, an inequality
// against a map, and an order over a field holding ints and maps,
// projected to another field.
func listenQueries() []*query.Query {
	coll := doc.MustCollection(collection)
	return []*query.Query{
		{Collection: coll},
		{Collection: coll, Orders: []query.Order{{Path: "v", Dir: index.Descending}}, Limit: 5},
		{Collection: coll, Predicates: []query.Predicate{{Path: "m", Op: query.Ge, Value: doc.Map(map[string]doc.Value{"x": doc.Int(0)})}}},
		{Collection: coll, Orders: []query.Order{{Path: "m", Dir: index.Ascending}}, Projection: []doc.FieldPath{"v"}},
	}
}

// listener is one real-time target: its query, and the view its
// snapshots fold to.
type listener struct {
	q *query.Query

	mu        sync.Mutex
	view      []*doc.Document
	snapshots int    // received
	checked   int    // compared with the oracle
	unchecked int    // whose oracle read failed
	wrong     string // the first that differed from the oracle
	err       error  // why the frontend ended the target, if it did
}

// apply folds one event into the view and compares the view with the
// oracle at the event's timestamp. Only the connection's drain
// goroutine calls it.
func (l *listener) apply(ctx context.Context, region *core.Region, ev frontend.SnapshotEvent) {
	if ev.Err != nil {
		l.mu.Lock()
		l.err = ev.Err
		l.mu.Unlock()
		return
	}
	view, ferr := fold(l.view, ev)
	want, rerr := answer(ctx, region, l.q, ev.TS)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.view = view
	l.snapshots++
	d := ""
	switch {
	case ferr != nil:
		d = ferr.Error()
	case rerr != nil:
		l.unchecked++
	default:
		l.checked++
		d = diff(view, want)
	}
	if d != "" && l.wrong == "" {
		l.wrong = fmt.Sprintf("snapshot at %d: %s", ev.TS, d)
	}
}

// state returns the view, the number of snapshots received, and the
// error that ended the target, if any.
func (l *listener) state() ([]*doc.Document, int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.view, l.snapshots, l.err
}

// fold applies one event to an ordered view as a client does: an Initial
// snapshot replaces the view; a delta drops every document it names and
// puts each document it lists at its position, lowest position first.
func fold(view []*doc.Document, ev frontend.SnapshotEvent) ([]*doc.Document, error) {
	if ev.Initial {
		return slices.Clone(ev.Added), nil
	}
	listed := slices.Concat(ev.Added, ev.Modified)
	if len(ev.At) != len(listed) {
		return view, fmt.Errorf("delta lists %d documents and %d positions", len(listed), len(ev.At))
	}
	gone := make(map[doc.Name]bool, len(ev.Removed)+len(listed))
	for _, n := range ev.Removed {
		gone[n] = true
	}
	order := make([]int, len(listed))
	for i, d := range listed {
		gone[d.Name] = true
		order[i] = i
	}
	view = slices.DeleteFunc(slices.Clone(view), func(d *doc.Document) bool { return gone[d.Name] })
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(ev.At[a], ev.At[b]) })
	for _, i := range order {
		at := int(ev.At[i])
		if at > len(view) {
			return view, fmt.Errorf("position %d past a view of %d", at, len(view))
		}
		view = slices.Insert(view, at, listed[i])
	}
	return view, nil
}

// answer is the oracle: q evaluated in memory (query.Evaluate, then
// q's projection) over the bare collection as the region reads it at
// ts, or at a strong timestamp if ts is zero. The keyspace's docs
// documents fit in one page.
func answer(ctx context.Context, region *core.Region, q *query.Query, ts truetime.Timestamp) ([]*doc.Document, error) {
	res, _, err := region.RunQuery(ctx, dbID, priv, &query.Query{Collection: q.Collection}, nil, ts)
	if err != nil {
		return nil, err
	}
	out := query.Evaluate(q, res.Docs, func(d *doc.Document) *doc.Document { return d })
	for i, d := range out {
		out[i] = q.Project(d)
	}
	return out, nil
}

// diff describes the first place where got and want differ, or returns
// "" if they hold the same documents, field for field, in the same
// order.
func diff(got, want []*doc.Document) string {
	for i := 0; i < max(len(got), len(want)); i++ {
		switch {
		case i == len(got):
			return fmt.Sprintf("%d document(s), want %d: missing %s at %d", len(got), len(want), want[i], i)
		case i == len(want):
			return fmt.Sprintf("%d document(s), want %d: extra %s at %d", len(got), len(want), got[i], i)
		case !got[i].Equal(want[i]):
			return fmt.Sprintf("at %d: %s, want %s", i, got[i], want[i])
		}
	}
	return ""
}

// Run executes one scenario and reports the invariant results. It
// resets the fault plane on exit.
func Run(sc Scenario, opt Options) (*Report, error) {
	rep := &Report{
		Scenario:  sc.Name,
		Seed:      opt.Seed,
		Injected:  map[string]int64{},
		Schedules: map[string]string{},
		Pass:      true,
	}

	cfg := core.Config{
		Name:         "chaos",
		RTRanges:     4,
		ClockEpsilon: 10 * time.Microsecond,
		Seed:         opt.Seed,
	}
	if sc.Durable {
		if opt.Dir == "" {
			return nil, fmt.Errorf("scenario %s is durable: Options.Dir must point at a scratch directory", sc.Name)
		}
		cfg.StorageDir = opt.Dir
		cfg.MemtableCap = memtableCap
	}

	// Cluster scenarios put a coordinator and tablet-server child
	// processes under the region before it opens: storage ops cross the
	// wire, and the harness can SIGKILL a child mid-run.
	var harn *cluster.Harness
	var coord *cluster.Coordinator
	if sc.Cluster {
		if opt.Dir == "" {
			return nil, fmt.Errorf("scenario %s is clustered: Options.Dir must point at a scratch directory", sc.Name)
		}
		var err error
		coord, err = cluster.NewCoordinator(cluster.CoordinatorConfig{})
		if err != nil {
			return nil, fmt.Errorf("start coordinator: %w", err)
		}
		defer coord.Close()
		kind := cluster.KindMem
		if sc.Durable {
			kind = cluster.KindDisk
		}
		harn = cluster.NewHarness(coord, filepath.Join(opt.Dir, "peers"), kind)
		harn.MemtableCap = cfg.MemtableCap
		defer harn.Close()
		for i := 0; i < clusterPeers; i++ {
			name := fmt.Sprintf("ts%d", i)
			if err := harn.Spawn(name); err != nil {
				return nil, fmt.Errorf("spawn tablet server %s: %w", name, err)
			}
		}
		opt.logf("cluster up: coordinator %s + %d %s tablet-server process(es)", coord.Addr(), clusterPeers, kind)
		// The pool's storage now lives in the children; the region talks
		// to it through the coordinator's remote factories.
		cfg.StorageDir = ""
		cfg.StorageFactory = func(i int) (storage.Factory, error) { return coord.Factory(i), nil }
	} else if sc.KillPeer {
		return nil, fmt.Errorf("scenario %s sets KillPeer without Cluster", sc.Name)
	}

	region, err := core.OpenRegion(cfg)
	if err != nil {
		return nil, err
	}
	defer region.Close()
	// Reset before the region closes: a latency fault left armed would
	// otherwise slow teardown.
	defer fault.Reset()

	if _, err := region.CreateDatabase(dbID); err != nil {
		return nil, err
	}
	ctx := context.Background()

	// Trigger handler first, so every commit (including preload) is
	// observed. Commits and deliveries are keyed by name@ts: at-least-once
	// delivery may repeat a key, never skip one.
	key := func(name doc.Name, ts truetime.Timestamp) string { return fmt.Sprintf("%s@%d", name, ts) }
	var trigMu sync.Mutex
	delivered := map[string]int{}
	svc := region.Triggers(dbID)
	svc.OnWrite(collection[1:], func(_ context.Context, ch triggers.Change) error {
		trigMu.Lock()
		delivered[key(ch.Name, ch.TS)]++
		trigMu.Unlock()
		return nil
	})

	// Preload the keyspace so listeners and writers start from a full
	// result set. seq numbers every write, the preload's included.
	var commits []string
	var seq int64
	for i := 0; i < docs; i++ {
		name := docName(i)
		seq++
		ts, err := region.Commit(ctx, dbID, priv, []backend.WriteOp{setOp(name, seq, -1)})
		if err != nil {
			return nil, fmt.Errorf("preload %s: %w", name, err)
		}
		commits = append(commits, key(name, ts))
	}

	// Listeners register, and their initial snapshots are checked,
	// before the faults arm, so the fault window covers live streams,
	// not initial registration. Each connection's drain goroutine folds
	// and checks its targets' snapshots.
	var listeners []*listener
	var conns []*frontend.Conn
	var wgListen sync.WaitGroup
	stopListening := func() {
		for _, c := range conns {
			c.Close() // ends the drain goroutine's range over Events
		}
		wgListen.Wait()
	}
	defer stopListening()
	for i := 0; i < sc.Listeners; i++ {
		conn := region.NewConn(dbID, priv)
		conns = append(conns, conn)
		byTarget := map[int64]*listener{}
		for _, q := range listenQueries() {
			id, err := conn.Listen(ctx, q)
			if err != nil {
				return nil, fmt.Errorf("listen %s: %w", q, err)
			}
			byTarget[id] = &listener{q: q}
			listeners = append(listeners, byTarget[id])
		}
		wgListen.Add(1)
		go func() {
			defer wgListen.Done()
			for ev := range conn.Events() {
				byTarget[ev.TargetID].apply(ctx, region, ev)
			}
		}()
	}
	waiting := func(l *listener) bool { _, n, _ := l.state(); return n == 0 }
	for until := time.Now().Add(5 * time.Second); slices.ContainsFunc(listeners, waiting) && time.Now().Before(until); {
		time.Sleep(time.Millisecond)
	}

	// Arm the fault plane. Seed first: Enable resets per-site hit
	// counters, so the schedule starts at hit 0 under this seed.
	fault.SetSeed(opt.Seed)
	for _, spec := range sc.Faults {
		if err := fault.Enable(spec); err != nil {
			return nil, fmt.Errorf("enable %s: %w", spec.Site, err)
		}
		rep.Schedules[spec.Site] = fault.Schedule(opt.Seed, spec, 64)
	}
	opt.logf("armed %d fault(s), running %d writers x %d writes over %d docs",
		len(sc.Faults), writers, writes, docs)

	// Writers. Each has its own seed-derived rand source; keys come
	// from a YCSB uniform chooser over the keyspace, and about one write
	// in five is a delete.
	var (
		wg         sync.WaitGroup
		commitMu   sync.Mutex
		commitErrs int
		deletes    int
		extViol    []string
	)
	// Some sites fire per heartbeat tick, not per write, and a fast box
	// finishes the write quota inside one tick. Writers keep the traffic
	// up past their quota until every armed fault has bitten at least
	// once (the injected:<site> invariant below), for at most holdOpen.
	const holdOpen = 200 * time.Millisecond
	allFired := func() bool {
		for _, spec := range sc.Faults {
			if fault.Injected(spec.Site) == 0 {
				return false
			}
		}
		return true
	}
	holdUntil := time.Now().Add(holdOpen)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(opt.Seed*1_000_003 + int64(w)))
			chooser := ycsb.Uniform{N: docs}
			for i := 0; i < writes || !allFired() && time.Now().Before(holdUntil); i++ {
				name := docName(chooser.Next(rng))
				commitMu.Lock()
				seq++
				op := setOp(name, seq, w)
				commitMu.Unlock()
				if rng.Intn(5) == 0 {
					op = backend.WriteOp{Kind: backend.OpDelete, Name: name}
				}
				ts, err := region.Commit(ctx, dbID, priv, []backend.WriteOp{op})
				if err != nil {
					commitMu.Lock()
					commitErrs++
					commitMu.Unlock()
					continue
				}
				// External consistency: a strong read after the commit
				// reads at or above it and sees no older version.
				d, readTS, rerr := region.GetDocument(ctx, dbID, priv, name, 0)
				stale := rerr == nil && d.UpdateTime < ts || errors.Is(rerr, backend.ErrNotFound) && readTS < ts
				commitMu.Lock()
				commits = append(commits, key(name, ts))
				if op.Kind == backend.OpDelete {
					deletes++
				}
				if stale {
					extViol = append(extViol, fmt.Sprintf("%s: strong read at %d after commit %d", name, readTS, ts))
				}
				commitMu.Unlock()
			}
		}(w)
	}

	// KillPeer: once half the writes have been issued, SIGKILL one
	// tablet-server process and respawn it under the same name and data
	// directory. Commits against its tablets fail while it is down; the
	// respawned peer rejoins, WAL replay rolls acknowledged commits
	// forward, and lazy recovery re-opens engines on the next access.
	killerDone := make(chan struct{})
	var killErr error
	if sc.KillPeer {
		// The victim must host the tablets the workload actually writes:
		// the chaos database hashes to one pool database (the catalog's
		// fnv placement rule), and only the peer(s) owning that pool
		// database's tablets feel a kill.
		h := fnv.New32a()
		h.Write([]byte(dbID))
		poolIdx := int(h.Sum32()) % len(region.Spanners)
		victim := ""
		owned := 0
		for _, p := range coord.Snapshot().Peers {
			n := 0
			for _, ot := range p.Owned {
				if ot.DB == poolIdx {
					n++
				}
			}
			if n > owned {
				victim, owned = p.Name, n
			}
		}
		if victim == "" {
			return nil, fmt.Errorf("scenario %s: no peer owns tablets of pool database %d, nothing to kill", sc.Name, poolIdx)
		}
		const half = writers * writes / 2
		go func() {
			defer close(killerDone)
			for {
				commitMu.Lock()
				issued := seq - docs
				commitMu.Unlock()
				if issued >= half {
					break
				}
				time.Sleep(time.Millisecond)
			}
			opt.logf("SIGKILL peer %s (%d tablet(s)) mid-run (%d/%d writes issued)", victim, owned, half, writers*writes)
			if err := harn.Kill(victim); err != nil {
				killErr = fmt.Errorf("kill %s: %w", victim, err)
				return
			}
			if err := harn.Spawn(victim); err != nil {
				killErr = fmt.Errorf("respawn %s: %w", victim, err)
				return
			}
			opt.logf("peer %s respawned and rejoined", victim)
		}()
	} else {
		close(killerDone)
	}

	wg.Wait()
	<-killerDone
	if sc.KillPeer {
		rep.check("peer-kill-respawn", killErr == nil, "SIGKILL + respawn of one tablet-server process: %v", killErr)
	}
	rep.Commits = len(commits)
	rep.CommitErrs = commitErrs

	// Close the fault window before settling: recovery must complete
	// with the system healthy again.
	for _, spec := range sc.Faults {
		rep.Injected[spec.Site] = fault.Injected(spec.Site)
	}
	fault.Reset()
	opt.logf("fault window closed: %d commits, %d commit errors", rep.Commits, rep.CommitErrs)

	// Settle: every listener's view reaches the oracle at a fresh
	// timestamp.
	var stuck, wrong []string
	deadline := time.Now().Add(8 * time.Second)
	for i, l := range listeners {
		for {
			want, err := answer(ctx, region, l.q, 0)
			if err != nil {
				return nil, fmt.Errorf("oracle: %w", err)
			}
			view, _, ended := l.state()
			switch d := diff(view, want); {
			case d == "":
			case ended != nil:
				stuck = append(stuck, fmt.Sprintf("listener %d (%s) ended: %v", i, l.q, ended))
			case time.Now().After(deadline):
				stuck = append(stuck, fmt.Sprintf("listener %d (%s) never converged: %s", i, l.q, d))
			default:
				time.Sleep(2 * time.Millisecond)
				continue
			}
			break
		}
	}
	if len(listeners) > 0 {
		rep.check("listener-convergence", len(stuck) == 0, "%d of %d listener(s) converged to the oracle%s",
			len(listeners)-len(stuck), len(listeners), strings.Join(append([]string{""}, stuck...), "; "))
	}
	for i, l := range listeners {
		l.mu.Lock()
		rep.Checked += l.checked
		rep.Unchecked += l.unchecked
		if l.wrong != "" {
			wrong = append(wrong, fmt.Sprintf("listener %d (%s): %s", i, l.q, l.wrong))
		} else if l.checked == 0 {
			wrong = append(wrong, fmt.Sprintf("listener %d (%s): no snapshot checked", i, l.q))
		}
		l.mu.Unlock()
	}
	if len(listeners) > 0 {
		rep.check("listener-snapshots", len(wrong) == 0,
			"%d snapshot(s) checked against the oracle, %d unchecked (the oracle's read failed)%s",
			rep.Checked, rep.Unchecked, strings.Join(append([]string{""}, truncate(wrong, 3)...), "; "))
	}

	// Trigger at-least-once: every committed name@ts must eventually be
	// delivered (duplicates allowed).
	trigDeadline := time.Now().Add(5 * time.Second)
	var missing []string
	for {
		missing = missing[:0]
		trigMu.Lock()
		for _, k := range commits {
			if delivered[k] == 0 {
				missing = append(missing, k)
			}
		}
		trigMu.Unlock()
		if len(missing) == 0 || time.Now().After(trigDeadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	rep.check("trigger-at-least-once", len(missing) == 0,
		"%d/%d commits delivered to trigger handler (missing %v)",
		len(commits)-len(missing), len(commits), truncate(missing, 3))

	rep.check("external-consistency", len(extViol) == 0,
		"%d strong-read-after-commit checks violated (%v)", len(extViol), truncate(extViol, 3))

	// Index <-> document cross-check.
	vr, err := region.Backend.ValidateDatabase(ctx, dbID)
	if err != nil {
		return nil, fmt.Errorf("validate: %w", err)
	}
	rep.check("validation-clean", vr.Clean(),
		"docs=%d entries=%d corrupt=%d missing=%d orphans=%d",
		vr.Documents, vr.IndexEntries, len(vr.CorruptDocs), len(vr.MissingEntries), len(vr.OrphanEntries))
	repaired, err := region.Backend.RepairIndexes(ctx, dbID)
	if err != nil {
		return nil, fmt.Errorf("repair: %w", err)
	}
	rep.check("repair-zero", repaired == 0, "RepairIndexes fixed %d entries", repaired)

	rep.OutOfSyncs = region.Cache.Stats().OutOfSyncs
	rep.Requeries = region.Obs.Counter("frontend.requeries", obs.DB(dbID)).Value()
	if sc.ExpectOutOfSync {
		rep.check("tripped-out-of-sync", rep.OutOfSyncs > 0,
			"rtcache out_of_syncs=%d (scenario must trip the §IV-D4 reset path)", rep.OutOfSyncs)
	}
	if sc.ExpectRequery {
		rep.check("tripped-requery", rep.Requeries > 0,
			"frontend requeries=%d (scenario must trip reset-and-requery)", rep.Requeries)
	}
	// A reset costs each listener one rebuild, and a delete at most one
	// of each connection's limit listener (it lost a member); only a
	// dropped snapshot costs one without.
	if !slices.ContainsFunc(sc.Faults, func(f fault.Spec) bool { return f.Site == fault.FrontendConnDeliver }) {
		bound := rep.OutOfSyncs*int64(len(listeners)) + int64(deletes*sc.Listeners)
		rep.check("requeries-bounded", rep.Requeries <= bound,
			"frontend requeries=%d for %d out-of-sync reset(s) x %d listener(s) + %d delete(s) x %d limit listener(s)",
			rep.Requeries, rep.OutOfSyncs, len(listeners), deletes, sc.Listeners)
	}
	// The delivery contract: no update reaches a listener below what it emitted.
	late := region.Obs.Counter("frontend.late_updates", obs.DB(dbID)).Value()
	rep.check("no-late-updates", late == 0, "frontend.late_updates=%d", late)
	for _, spec := range sc.Faults {
		rep.check("injected:"+spec.Site, rep.Injected[spec.Site] > 0,
			"fault fired %d time(s)", rep.Injected[spec.Site])
	}
	if sc.ExpectKeyVizCrashFidelity {
		checkKeyVizCrashFidelity(rep, region)
	}

	rep.Recoveries, rep.Flushes, rep.Compactions = storageActivity(region)
	if sc.ExpectRecoveries {
		rep.check("tripped-recovery", rep.Recoveries > 0,
			"tablet recoveries=%d (scenario must crash and WAL-replay at least one engine)", rep.Recoveries)
	}
	if sc.ExpectFlushes {
		rep.check("tripped-flush", rep.Flushes > 0,
			"segment flushes=%d (workload must overflow the %dB memtable cap)", rep.Flushes, memtableCap)
	}
	if sc.ExpectCompactions {
		rep.check("tripped-compaction", rep.Compactions > 0,
			"compactions=%d (workload must accumulate enough segments to compact)", rep.Compactions)
	}

	// Restart durability: tear the whole region down and recover it from
	// disk. The reopened region must serve exactly the authoritative
	// pre-shutdown state, with index validation still clean.
	if sc.Durable {
		whole := &query.Query{Collection: doc.MustCollection(collection)}
		want, err := answer(ctx, region, whole, 0)
		if err != nil {
			return nil, fmt.Errorf("final read: %w", err)
		}
		stopListening() // the drains read through the region
		region.Close()
		re, err := core.OpenRegion(cfg)
		if err != nil {
			rep.check("restart-durability", false, "reopen after shutdown: %v", err)
			return rep, nil
		}
		defer re.Close()
		// Catalog placement is a deterministic hash of the database ID,
		// so re-creating it rebinds the recovered directory prefix.
		if _, err := re.CreateDatabase(dbID); err != nil {
			return nil, fmt.Errorf("recreate database after restart: %w", err)
		}
		got, err := answer(ctx, re, whole, 0)
		if err != nil {
			return nil, fmt.Errorf("read after restart: %w", err)
		}
		d := diff(got, want)
		rep.check("restart-durability", d == "", "recovered %d docs (want %d) %s", len(got), len(want), d)
		vr2, err := re.Backend.ValidateDatabase(ctx, dbID)
		if err != nil {
			return nil, fmt.Errorf("validate after restart: %w", err)
		}
		rep.check("restart-validation-clean", vr2.Clean(),
			"docs=%d entries=%d corrupt=%d missing=%d orphans=%d",
			vr2.Documents, vr2.IndexEntries, len(vr2.CorruptDocs), len(vr2.MissingEntries), len(vr2.OrphanEntries))
	}

	return rep, nil
}

// checkKeyVizCrashFidelity asserts the keyspace-telemetry collector
// tells the truth about a crash scenario: the crashed range is an event
// on the timeline, the injected fault is on the same timeline, and the
// victim is the top-scored range in the window covering the crash.
func checkKeyVizCrashFidelity(rep *Report, region *core.Region) {
	kv := region.KeyViz
	if kv == nil {
		rep.check("keyviz-crash-fidelity", false, "region has no keyviz collector")
		return
	}
	evs := kv.Events()
	var crash *keyviz.Event
	faultOnTimeline := false
	for i := range evs {
		if evs[i].Site == keyviz.EvRangeCrash && crash == nil {
			crash = &evs[i]
		}
		if evs[i].Site == keyviz.EvFault {
			faultOnTimeline = true
		}
	}
	rep.check("keyviz-fault-on-timeline", faultOnTimeline,
		"injected faults on timeline=%v (fault sink must feed the keyviz event log)", faultOnTimeline)
	if crash == nil {
		rep.check("keyviz-crash-fidelity", false,
			"no %s event on the keyviz timeline (%d events total)", keyviz.EvRangeCrash, len(evs))
		return
	}
	shard, ops, ok := kv.TopShard(keyviz.SrcRange, crash.TS)
	rep.check("keyviz-crash-fidelity", ok && shard == crash.Shard,
		"crash victim range %d vs top-scored range %d (%d ops, found=%v) in the window covering the crash",
		crash.Shard, shard, ops, ok)
}

// storageActivity sums engine recoveries, flushes, and compactions over
// the region's Spanner pool.
func storageActivity(region *core.Region) (recoveries, flushes, compactions int64) {
	for _, db := range region.Spanners {
		recoveries += db.Stats().Recoveries
		for _, ti := range db.TabletStats() {
			flushes += ti.Storage.Flushes
			compactions += ti.Storage.Compactions
		}
	}
	// An engine's own Stats start over when a crash reopens it; where the
	// engines feed the region's registry its counters span their lifetimes,
	// so a crash after the last compaction does not hide it.
	flushes = max(flushes, region.Obs.Counter("storage.flushes", nil).Value())
	compactions = max(compactions, region.Obs.Counter("storage.compactions", nil).Value())
	return recoveries, flushes, compactions
}

func docName(i int) doc.Name {
	return doc.MustName(fmt.Sprintf("%s/%s", collection, ycsb.Key(i)))
}

// setOp is the workload's set of write v by writer w (-1 for the
// preload): field m holds an int or a map, so the index, the Query
// Matcher and the listeners' orders meet both kinds at one path, and
// field a holds an array.
func setOp(name doc.Name, v int64, w int) backend.WriteOp {
	m := doc.Int(v)
	if v%2 == 1 {
		m = doc.Map(map[string]doc.Value{"x": doc.Int(v % 3)})
	}
	return backend.WriteOp{
		Kind: backend.OpSet,
		Name: name,
		Fields: map[string]doc.Value{
			"v": doc.Int(v),
			"w": doc.Int(int64(w)),
			"m": m,
			"a": doc.Array(doc.Int(v%4), doc.Int(int64(w))),
		},
	}
}

func truncate(s []string, n int) []string {
	if len(s) <= n {
		return s
	}
	return append(append([]string{}, s[:n]...), fmt.Sprintf("... +%d more", len(s)-n))
}
