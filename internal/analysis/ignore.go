package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// knownAnalyzers is the directive-name universe: the registered suite
// plus the "fslint" pseudo-analyzer for directive findings themselves.
func knownAnalyzers() map[string]bool {
	set := map[string]bool{"fslint": true}
	for _, a := range Analyzers() {
		set[a.Name] = true
	}
	return set
}

func knownAnalyzerNames() []string {
	var names []string
	for n := range knownAnalyzers() {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ignorePrefix is the allowlist directive: //fslint:ignore <analyzer|*> <reason>
const ignorePrefix = "fslint:ignore"

// ignoreDirective is one parsed allowlist comment. It suppresses matching
// findings on its own line and the line immediately below it, so it works
// both as a trailing comment and as a standalone line above the code.
type ignoreDirective struct {
	line      int
	analyzers map[string]bool // nil means every analyzer ("*")
}

func (d *ignoreDirective) matches(f Finding) bool {
	if f.Line != d.line && f.Line != d.line+1 {
		return false
	}
	return d.analyzers == nil || d.analyzers[f.Analyzer]
}

// ignoreIndex holds one package's directives plus findings for malformed
// ones (a directive with no reason defeats the point of an allowlist).
type ignoreIndex struct {
	byFile    map[string][]ignoreDirective
	malformed []Finding
}

func (idx *ignoreIndex) suppressed(f Finding) bool {
	for _, d := range idx.byFile[f.Path] {
		if d.matches(f) {
			return true
		}
	}
	return false
}

func buildIgnoreIndex(fset *token.FileSet, files []*ast.File) *ignoreIndex {
	idx := &ignoreIndex{byFile: map[string][]ignoreDirective{}}
	for _, file := range files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//"+ignorePrefix)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) < 2 {
					idx.malformed = append(idx.malformed, Finding{
						Path:     pos.Filename,
						Line:     pos.Line,
						Col:      pos.Column,
						Analyzer: "fslint",
						Message:  "fslint:ignore needs an analyzer name (or *) and a reason: //fslint:ignore <analyzer> <why this is allowed>",
					})
					continue
				}
				d := ignoreDirective{line: pos.Line}
				if fields[0] != "*" {
					d.analyzers = map[string]bool{}
					// One directive may name several analyzers:
					// //fslint:ignore lockorder,lockdiscipline <reason>.
					// Unknown names are themselves findings — a typo'd
					// directive silently suppressing nothing (or the
					// wrong thing) defeats the allowlist.
					for _, name := range strings.Split(fields[0], ",") {
						if !knownAnalyzers()[name] {
							idx.malformed = append(idx.malformed, Finding{
								Path:     pos.Filename,
								Line:     pos.Line,
								Col:      pos.Column,
								Analyzer: "fslint",
								Message:  fmt.Sprintf("fslint:ignore names unknown analyzer %q; known: %s", name, strings.Join(knownAnalyzerNames(), ", ")),
							})
							continue
						}
						d.analyzers[name] = true
					}
				}
				idx.byFile[pos.Filename] = append(idx.byFile[pos.Filename], d)
			}
		}
	}
	return idx
}
