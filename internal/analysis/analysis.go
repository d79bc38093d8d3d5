// Package analysis is a stdlib-only static-analysis framework for this
// repository. PRs 1–3 threaded four cross-cutting invariants through
// every layer — canonical status codes, request-context propagation, the
// *Locked mutex-held naming convention, and TrueTime-driven timestamps —
// and this package makes them mechanically un-violable: a loader drives
// go/parser and go/types over packages listed once with `go list -deps`
// (keeping go.mod dependency-free), and eight repo-specific analyzers
// report violations as findings a CI gate turns into failures. Packages
// type-check from source in dependency order, so type identities unify
// across the whole load — the substrate the interprocedural layer
// (callgraph.go) builds its CHA call graph on.
//
// The analyzers are:
//
//   - statusdiscipline: request-path packages construct errors with the
//     canonical internal/status constructors, never bare errors.New or
//     fmt.Errorf without %w, and compare sentinels with errors.Is.
//   - lockdiscipline: a fooLocked method is only called with its
//     receiver's mutex held; defer mu.Unlock() never follows a
//     conditional Lock. It reads the lock timeline lockorder builds.
//     (Copied locks and copied atomic wrappers are go vet's copylocks,
//     which `make verify` runs.)
//   - lockorder: the global lock-acquisition order over mutex classes is
//     acyclic — held sets propagate through the call graph and every
//     cycle is reported with concrete witness call chains (the AB-BA
//     deadlock class that per-function checks cannot see).
//   - ctxdiscipline: context.Context parameters come first, and
//     request-path packages never mint context.Background()/TODO()
//     outside tests.
//   - obsdiscipline: metric names registered with internal/obs are
//     compile-time constants with fixed label sets (no per-request name
//     formatting, which would explode metric cardinality).
//   - clockdiscipline, iodiscipline, netdiscipline: three rows of one
//     table-driven confinement check (confine.go) — "API set X, package
//     set Y". time.Now/Since/Until/Sleep never appear in the
//     TrueTime-disciplined packages (timestamps come from the injected
//     truetime.Clock so commit-wait semantics and replayability hold);
//     os.* file operations appear only in internal/storage and
//     net.Dial*/net.Listen* only in internal/transport (plus the
//     analysis loader and the cmd/ and examples/ entry points), so the
//     WAL/manifest protocol governs every byte on disk and the wire
//     protocol's framing, fault sites and per-peer health every byte
//     between processes.
//
// A finding on a line is suppressed by an allowlist directive on the
// same line or the line above:
//
//	//fslint:ignore <analyzer|*> <reason>
//
// The reason is mandatory; a directive without one is itself a finding.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named invariant check. Exactly one of Run (per
// package) or RunProgram (whole program, with the call graph) is set.
type Analyzer struct {
	// Name identifies the analyzer in findings and ignore directives.
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// Applies reports whether the analyzer runs over the package with
	// the given import path. A nil Applies runs everywhere. The golden
	// tests bypass it by invoking Run directly. Program analyzers ignore
	// it: they see every loaded package at once.
	Applies func(importPath string) bool
	// Run inspects one package and reports findings via pass.Reportf.
	Run func(pass *Pass)
	// RunProgram inspects the whole program — every loaded package plus
	// the call graph — and reports findings via pass.Reportf. Used by
	// the interprocedural analyzer (lockorder).
	RunProgram func(pass *ProgramPass)
}

// reporter is what Pass and ProgramPass share: the analyzer a finding
// comes from and the file set that places it.
type reporter struct {
	Analyzer *Analyzer
	Fset     *token.FileSet

	report func(Finding)
}

// Reportf records a finding at pos.
func (r *reporter) Reportf(pos token.Pos, format string, args ...any) {
	position := r.Fset.Position(pos)
	r.report(Finding{
		Path:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: r.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ProgramPass carries the whole program to an interprocedural analyzer.
type ProgramPass struct {
	reporter
	Prog *Program
}

// Pass carries one package's syntax and type information to an analyzer.
type Pass struct {
	reporter
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
	ImportPath string
	// RequestPath is set by the driver for packages on the request
	// path (see RequestPathPrefixes); analyzers with a two-tier scope
	// (ctxdiscipline) consult it.
	RequestPath bool
}

// Finding is one reported violation.
type Finding struct {
	Path     string `json:"path"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Path, f.Line, f.Analyzer, f.Message)
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		StatusDiscipline,
		LockDiscipline,
		LockOrder,
		CtxDiscipline,
		ClockDiscipline,
		ObsDiscipline,
		IODiscipline,
		NetDiscipline,
	}
}

// RequestPathPrefixes lists the import paths of packages on the request
// path: every layer a client operation traverses. statusdiscipline runs
// only here, and ctxdiscipline's context.Background() ban applies only
// here — background daemons elsewhere legitimately mint root contexts.
var RequestPathPrefixes = []string{
	"firestore/firestore",
	"firestore/internal/backend",
	// fault.Point/Decide hooks sit inline on the request path, so the
	// fault plane observes the same ctx-first contract as the layers it
	// instruments.
	"firestore/internal/fault",
	"firestore/internal/frontend",
	"firestore/internal/rtcache",
	"firestore/internal/spanner",
	"firestore/internal/wfq",
}

// IsRequestPath reports whether importPath is on the request path.
func IsRequestPath(importPath string) bool {
	for _, p := range RequestPathPrefixes {
		if importPath == p {
			return true
		}
	}
	return false
}

// Run executes every applicable analyzer over every package, applies the
// //fslint:ignore allowlist, and returns surviving findings sorted by
// position. Malformed directives (no reason) surface as findings from
// the pseudo-analyzer "fslint".
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	// The ignore index is global (keyed by file), so directives suppress
	// findings from program-wide analyzers the same way as per-package
	// ones.
	var allFiles []*ast.File
	var fset *token.FileSet
	for _, pkg := range pkgs {
		allFiles = append(allFiles, pkg.Files...)
		fset = pkg.Fset
	}
	idx := buildIgnoreIndex(fset, allFiles)
	all := idx.malformed
	report := func(f Finding) {
		if !idx.suppressed(f) {
			all = append(all, f)
		}
	}

	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil || a.Applies != nil && !a.Applies(pkg.ImportPath) {
				continue
			}
			a.Run(&Pass{
				reporter:    reporter{Analyzer: a, Fset: pkg.Fset, report: report},
				Files:       pkg.Files,
				Pkg:         pkg.Types,
				Info:        pkg.Info,
				ImportPath:  pkg.ImportPath,
				RequestPath: IsRequestPath(pkg.ImportPath),
			})
		}
	}
	var prog *Program
	for _, a := range analyzers {
		if a.RunProgram == nil {
			continue
		}
		if prog == nil {
			prog = BuildProgram(pkgs)
		}
		a.RunProgram(&ProgramPass{reporter: reporter{Analyzer: a, Fset: prog.Fset, report: report}, Prog: prog})
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Path != b.Path {
			return a.Path < b.Path
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return all
}
