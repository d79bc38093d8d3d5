// Command fslint runs the repository's static-analysis suite: the
// analyzers that mechanically enforce the cross-cutting invariants the
// codebase is built on (canonical status codes, context propagation,
// the *Locked mutex convention, global lock-acquisition order,
// TrueTime-only timestamps, and constant metric names). See
// internal/analysis for the invariants and the //fslint:ignore allowlist
// syntax.
//
// Usage:
//
//	fslint [-json] [-list] [-graph] [packages...]
//
// Packages default to ./... relative to the current directory. The exit
// status is 1 when any finding survives the allowlist, so `make lint`
// and CI gate on it. -json emits machine-readable findings (path, line,
// col, analyzer, message) for diffing finding counts across PRs.
// -graph skips the analyzers and emits the interprocedural lock-order
// graph as Graphviz DOT (mutex classes as nodes, acquisition-order
// edges labeled with their witness function, cycles in red) — the
// DESIGN.md "Lock hierarchy" figure is generated with it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"firestore/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array instead of text")
	list := flag.Bool("list", false, "list the analyzers and exit")
	graph := flag.Bool("graph", false, "emit the lock-order graph as Graphviz DOT instead of running the analyzers")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: fslint [-json] [-list] [-graph] [packages...]\n\nAnalyzers:\n")
		for _, a := range analysis.Analyzers() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-18s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.Analyzers() {
			fmt.Printf("%-18s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	loader, err := analysis.NewLoader(cwd, patterns...)
	if err != nil {
		fatal(err)
	}
	pkgs, err := loader.Load()
	if err != nil {
		fatal(err)
	}

	if *graph {
		fmt.Print(analysis.LockOrderDOT(analysis.BuildProgram(pkgs)))
		return
	}

	findings := analysis.Run(pkgs, analysis.Analyzers())
	for i := range findings {
		if rel, err := filepath.Rel(cwd, findings[i].Path); err == nil {
			findings[i].Path = rel
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []analysis.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fatal(err)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
		if len(findings) > 0 {
			fmt.Fprintf(os.Stderr, "fslint: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		}
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fslint:", err)
	os.Exit(2)
}
