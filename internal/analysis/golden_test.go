package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The loader shells out to `go list -deps -export` once; every golden
// test shares it.
var (
	loaderOnce sync.Once
	sharedLdr  *Loader
	loaderErr  error
)

func goldenLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		sharedLdr, loaderErr = NewLoader("../..")
	})
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return sharedLdr
}

// want is one `// want `regexp“ expectation parsed from a testdata file:
// a finding must land on exactly that file and line with a matching
// message, and every finding must be claimed by exactly one want.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile("// want `([^`]+)`")

func parseWants(t *testing.T, dir string) []*want {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	var wants []*want
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading %s: %v", path, err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp %q: %v", path, i+1, m[1], err)
			}
			wants = append(wants, &want{file: path, line: i + 1, re: re})
		}
	}
	return wants
}

// runGolden loads the testdata directory under importPath (which decides
// Applies scoping and Pass.RequestPath), runs the analyzers through the
// full Run pipeline (so //fslint:ignore directives apply), and checks the
// findings against the file's `// want` expectations both ways.
func runGolden(t *testing.T, dir, importPath string, analyzers ...*Analyzer) []Finding {
	t.Helper()
	l := goldenLoader(t)
	pkg, err := l.LoadDir(dir, importPath)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	findings := Run([]*Package{pkg}, analyzers)
	wants := parseWants(t, dir)
	for _, f := range findings {
		claimed := false
		for _, w := range wants {
			if !w.matched && w.file == f.Path && w.line == f.Line && w.re.MatchString(f.Message) {
				w.matched = true
				claimed = true
				break
			}
		}
		if !claimed {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no finding matched want `%s`", w.file, w.line, w.re)
		}
	}
	return findings
}

func TestStatusDisciplineGolden(t *testing.T) {
	findings := runGolden(t, filepath.Join("testdata", "src", "statusdiscipline"),
		"firestore/internal/backend", StatusDiscipline)
	// The acceptance bar: seeded violations make the suite exit non-zero,
	// which cmd/fslint derives from a non-empty finding list.
	if len(findings) == 0 {
		t.Fatal("seeded violations produced no findings; fslint would exit 0")
	}
}

func TestStatusDisciplineOutOfScope(t *testing.T) {
	// The same seeded file under a non-request-path import produces
	// nothing: Applies scoping keeps tools/ and cmd/ free to use fmt.Errorf.
	l := goldenLoader(t)
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", "statusdiscipline"), "fslint/testdata/outofscope")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if findings := Run([]*Package{pkg}, []*Analyzer{StatusDiscipline}); len(findings) != 0 {
		t.Errorf("statusdiscipline ran outside the request path: %v", findings)
	}
}

func TestLockDisciplineGolden(t *testing.T) {
	runGolden(t, filepath.Join("testdata", "src", "lockdiscipline"),
		"fslint/testdata/lockdiscipline", LockDiscipline)
}

func TestCtxDisciplineGolden(t *testing.T) {
	runGolden(t, filepath.Join("testdata", "src", "ctxdiscipline"),
		"firestore/internal/frontend", CtxDiscipline)
}

func TestCtxDisciplineBackgroundGolden(t *testing.T) {
	runGolden(t, filepath.Join("testdata", "src", "ctxbg"),
		"fslint/testdata/ctxbg", CtxDiscipline)
}

func TestClockDisciplineGolden(t *testing.T) {
	runGolden(t, filepath.Join("testdata", "src", "clockdiscipline"),
		"firestore/internal/spanner", ClockDiscipline)
}

// TestClockDisciplineFaultGolden loads seeded violations under the fault
// plane's import path: the plane is TrueTime-disciplined, including the
// time.Sleep ban (injected latency must come from the injected clock).
func TestClockDisciplineFaultGolden(t *testing.T) {
	findings := runGolden(t, filepath.Join("testdata", "src", "faultclock"),
		"firestore/internal/fault", ClockDiscipline)
	if len(findings) == 0 {
		t.Fatal("seeded fault-plane clock violations produced no findings")
	}
}

// TestCtxDisciplineFaultGolden checks the fault plane counts as a
// request-path package: hooks take ctx first and never mint roots.
func TestCtxDisciplineFaultGolden(t *testing.T) {
	findings := runGolden(t, filepath.Join("testdata", "src", "faultctx"),
		"firestore/internal/fault", CtxDiscipline)
	if len(findings) == 0 {
		t.Fatal("seeded fault-plane ctx violations produced no findings")
	}
}

func TestClockDisciplineOutOfScope(t *testing.T) {
	l := goldenLoader(t)
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", "clockdiscipline"), "fslint/testdata/wallclock")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if findings := Run([]*Package{pkg}, []*Analyzer{ClockDiscipline}); len(findings) != 0 {
		t.Errorf("clockdiscipline ran outside its scope: %v", findings)
	}
}

func TestObsDisciplineGolden(t *testing.T) {
	runGolden(t, filepath.Join("testdata", "src", "obsd"),
		"fslint/testdata/obsd", ObsDiscipline)
}

func TestIODisciplineGolden(t *testing.T) {
	findings := runGolden(t, filepath.Join("testdata", "src", "iodiscipline"),
		"firestore/internal/spanner", IODiscipline)
	if len(findings) == 0 {
		t.Fatal("seeded file-I/O violations produced no findings; fslint would exit 0")
	}
}

// TestIODisciplineOutOfScope loads the same seeded violations under the
// allowlisted trees: internal/storage (the engine owns all file I/O),
// internal/analysis (the loader reads Go sources), and the cmd/ and
// examples/ prefixes (entry points own flag-driven scratch dirs).
func TestIODisciplineOutOfScope(t *testing.T) {
	l := goldenLoader(t)
	for _, importPath := range []string{
		"firestore/internal/storage",
		"firestore/internal/analysis",
		"firestore/cmd/firestore-bench",
		"firestore/examples/restaurants",
	} {
		pkg, err := l.LoadDir(filepath.Join("testdata", "src", "iodiscipline"), importPath)
		if err != nil {
			t.Fatalf("LoadDir: %v", err)
		}
		if findings := Run([]*Package{pkg}, []*Analyzer{IODiscipline}); len(findings) != 0 {
			t.Errorf("iodiscipline ran inside allowlisted %s: %v", importPath, findings)
		}
	}
}

func TestNetDisciplineGolden(t *testing.T) {
	findings := runGolden(t, filepath.Join("testdata", "src", "netdiscipline"),
		"firestore/internal/cluster", NetDiscipline)
	if len(findings) == 0 {
		t.Fatal("seeded socket violations produced no findings; fslint would exit 0")
	}
}

// TestNetDisciplineOutOfScope loads the same seeded violations under the
// allowlisted trees: internal/transport (the sole socket owner) and the
// cmd/ and examples/ prefixes (entry points bind their own HTTP and
// control-plane listeners).
func TestNetDisciplineOutOfScope(t *testing.T) {
	l := goldenLoader(t)
	for _, importPath := range []string{
		"firestore/internal/transport",
		"firestore/cmd/firestore-server",
		"firestore/examples/restaurants",
	} {
		pkg, err := l.LoadDir(filepath.Join("testdata", "src", "netdiscipline"), importPath)
		if err != nil {
			t.Fatalf("LoadDir: %v", err)
		}
		if findings := Run([]*Package{pkg}, []*Analyzer{NetDiscipline}); len(findings) != 0 {
			t.Errorf("netdiscipline ran inside allowlisted %s: %v", importPath, findings)
		}
	}
}

// TestLockOrderGolden is the acceptance fixture: the PR 6 recoverTablet
// AB-BA shape must surface as one cycle finding carrying both witness
// chains, including the cross-function recover -> bumpStats chain.
func TestLockOrderGolden(t *testing.T) {
	findings := runGolden(t, filepath.Join("testdata", "src", "lockorder"),
		"fslint/testdata/lockorder", LockOrder)
	if len(findings) == 0 {
		t.Fatal("the AB-BA fixture produced no cycle finding; fslint would exit 0")
	}
}

// TestLockOrderDOT checks the -graph export over the same fixture: the
// cycle renders red, and no same-class self-edge leaks into the cycle.
func TestLockOrderDOT(t *testing.T) {
	l := goldenLoader(t)
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", "lockorder"), "fslint/testdata/lockorder")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	dot := LockOrderDOT(BuildProgram([]*Package{pkg}))
	for _, wantStr := range []string{
		`"lockorder.DB.mu" [color=red];`,
		`"lockorder.tablet.mu" [color=red];`,
		`"lockorder.DB.mu" -> "lockorder.tablet.mu" [label="(*lockorder.DB).maybeSplit", color=red];`,
		`"lockorder.tablet.mu" -> "lockorder.DB.mu" [label="(*lockorder.tablet).recover", color=red];`,
		// The engine mutex is below both but on no cycle: plain node.
		`"lockorder.diskEngine.mu";`,
	} {
		if !strings.Contains(dot, wantStr) {
			t.Errorf("DOT output missing %q:\n%s", wantStr, dot)
		}
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{Path: "a/b.go", Line: 7, Col: 3, Analyzer: "statusdiscipline", Message: "boom"}
	if got, wantStr := f.String(), "a/b.go:7: [statusdiscipline] boom"; got != wantStr {
		t.Errorf("String() = %q, want %q", got, wantStr)
	}
}
