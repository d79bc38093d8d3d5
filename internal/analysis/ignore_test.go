package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func indexOf(t *testing.T, src string) *ignoreIndex {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "ignore_input.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return buildIgnoreIndex(fset, []*ast.File{file})
}

func TestIgnoreDirectiveWithoutReason(t *testing.T) {
	idx := indexOf(t, `package p

func f() {
	//fslint:ignore statusdiscipline
	_ = 1
}
`)
	if len(idx.malformed) != 1 {
		t.Fatalf("malformed = %d findings, want 1", len(idx.malformed))
	}
	bad := idx.malformed[0]
	if bad.Analyzer != "fslint" {
		t.Errorf("malformed finding attributed to %q, want the fslint pseudo-analyzer", bad.Analyzer)
	}
	if !strings.Contains(bad.Message, "needs an analyzer name") {
		t.Errorf("malformed message = %q", bad.Message)
	}
	// A reason-less directive suppresses nothing: the violation it sat on
	// still surfaces.
	if idx.suppressed(Finding{Path: "ignore_input.go", Line: 5, Analyzer: "statusdiscipline"}) {
		t.Error("reason-less directive suppressed a finding")
	}
}

func TestIgnoreDirectiveScope(t *testing.T) {
	idx := indexOf(t, `package p

func f() {
	//fslint:ignore statusdiscipline,lockdiscipline two analyzers, one reason
	_ = 1
	_ = 2 //fslint:ignore * wildcard with a reason
}
`)
	if n := len(idx.malformed); n != 0 {
		t.Fatalf("malformed = %d findings, want 0", n)
	}
	cases := []struct {
		f    Finding
		want bool
	}{
		{Finding{Path: "ignore_input.go", Line: 5, Analyzer: "statusdiscipline"}, true},
		{Finding{Path: "ignore_input.go", Line: 5, Analyzer: "lockdiscipline"}, true},
		{Finding{Path: "ignore_input.go", Line: 5, Analyzer: "clockdiscipline"}, false}, // not in the list
		{Finding{Path: "ignore_input.go", Line: 6, Analyzer: "obsdiscipline"}, true},    // wildcard, same line
		{Finding{Path: "other.go", Line: 5, Analyzer: "statusdiscipline"}, false},       // different file
		{Finding{Path: "ignore_input.go", Line: 9, Analyzer: "statusdiscipline"}, false},
	}
	for _, c := range cases {
		if got := idx.suppressed(c.f); got != c.want {
			t.Errorf("suppressed(%s line %d) = %v, want %v", c.f.Analyzer, c.f.Line, got, c.want)
		}
	}
}

// TestIgnoreDirectiveMultiple pins the multi-analyzer form: one
// directive naming two analyzers.
func TestIgnoreDirectiveMultiple(t *testing.T) {
	idx := indexOf(t, `package p

func f() {
	//fslint:ignore lockorder,obsdiscipline init path, value unpublished
	_ = 1
}
`)
	if n := len(idx.malformed); n != 0 {
		t.Fatalf("malformed = %d findings, want 0", n)
	}
	for _, analyzer := range []string{"lockorder", "obsdiscipline"} {
		if !idx.suppressed(Finding{Path: "ignore_input.go", Line: 5, Analyzer: analyzer}) {
			t.Errorf("directive did not suppress %s", analyzer)
		}
	}
	if idx.suppressed(Finding{Path: "ignore_input.go", Line: 5, Analyzer: "lockdiscipline"}) {
		t.Error("directive suppressed an analyzer it does not name")
	}
}

// TestIgnoreDirectiveUnknownAnalyzer: a typo'd name is itself a finding —
// a directive that silently suppresses nothing defeats the allowlist.
func TestIgnoreDirectiveUnknownAnalyzer(t *testing.T) {
	idx := indexOf(t, `package p

func f() {
	//fslint:ignore lockorder,lockodrer typo in the second name
	_ = 1
}
`)
	if len(idx.malformed) != 1 {
		t.Fatalf("malformed = %d findings, want 1: %v", len(idx.malformed), idx.malformed)
	}
	msg := idx.malformed[0].Message
	if !strings.Contains(msg, `unknown analyzer "lockodrer"`) || !strings.Contains(msg, "known:") {
		t.Errorf("malformed message = %q, want the unknown name and the known list", msg)
	}
	// The valid half of the directive still works.
	if !idx.suppressed(Finding{Path: "ignore_input.go", Line: 5, Analyzer: "lockorder"}) {
		t.Error("valid name in a partly-bad directive stopped suppressing")
	}
	// The typo suppresses nothing.
	if idx.suppressed(Finding{Path: "ignore_input.go", Line: 5, Analyzer: "lockodrer"}) {
		t.Error("unknown analyzer name suppressed a finding")
	}
}
