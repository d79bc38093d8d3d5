package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// listPackage is the subset of `go list -json` output the loader reads.
type listPackage struct {
	Dir        string
	ImportPath string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// Loader lists packages with the go command once and type-checks the
// listed packages from source, resolving imports through the compiler's
// export data (reported by `go list -export`). This keeps go.mod free of
// analysis dependencies: everything here is the standard library plus
// the already-present go toolchain.
type Loader struct {
	fset    *token.FileSet
	exports map[string]string // import path -> export data file
	imp     types.Importer
	// listed are the module's packages in `go list -deps` order:
	// dependencies first.
	listed []listPackage
	// srcPkgs caches packages this loader has already type-checked from
	// source. Imports prefer these over export data so that types.Object
	// identities unify across the whole load — the property the
	// interprocedural analyzers (call graph, lockorder)
	// rely on to match a method seen at a call site in one package with
	// its declaration in another.
	srcPkgs map[string]*Package
}

// preferSource resolves imports against already source-checked packages
// first, falling back to compiler export data for the standard library
// and anything outside the load.
type preferSource struct{ l *Loader }

func (p preferSource) Import(path string) (*types.Package, error) {
	if pkg, ok := p.l.srcPkgs[path]; ok {
		return pkg.Types, nil
	}
	return p.l.imp.Import(path)
}

// NewLoader prepares a loader rooted at the module directory dir. It
// runs `go list -deps -export -json <patterns>` once (default ./...):
// the export data of the standard library resolves imports, and Load
// checks the module's packages in the order listed.
func NewLoader(dir string, patterns ...string) (*Loader, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-deps", "-export", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	l := &Loader{
		fset:    token.NewFileSet(),
		exports: map[string]string{},
		srcPkgs: map[string]*Package{},
	}
	dec := json.NewDecoder(&stdout)
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
		if !p.Standard && len(p.GoFiles) > 0 {
			l.listed = append(l.listed, p)
		}
	}
	l.imp = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		exp, ok := l.exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q (not in the module's dependency graph)", path)
		}
		return os.Open(exp)
	})
	return l, nil
}

// Load parses and type-checks the module's listed packages and returns
// those NewLoader's patterns named (not DepOnly). Test files are
// excluded: the invariants govern production code, and tests routinely
// mint contexts and wall-clock timestamps on purpose. `go list -deps`
// lists a package after its dependencies, so when B imports A, A's
// source-checked types.Package is already cached and B resolves A's
// objects to the same identities the analyzers see when walking A
// itself; a dependency the patterns did not name is checked from source
// too, or its export data would bring in a second copy of A.
func (l *Loader) Load() ([]*Package, error) {
	var pkgs []*Package
	for _, p := range l.listed {
		files := make([]string, len(p.GoFiles))
		for i, f := range p.GoFiles {
			files[i] = filepath.Join(p.Dir, f)
		}
		pkg, err := l.check(p.ImportPath, p.Dir, files)
		if err != nil {
			return nil, err
		}
		l.srcPkgs[p.ImportPath] = pkg
		if !p.DepOnly {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// LoadDir parses and type-checks the .go files in one directory under an
// arbitrary import path. The golden tests use it to load testdata
// packages that `go list ./...` deliberately ignores.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	return l.check(importPath, dir, files)
}

func (l *Loader) check(importPath, dir string, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(l.fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: preferSource{l}, FakeImportC: true}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       l.fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}
