package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the interprocedural layer of the framework: a CHA-style
// (class-hierarchy analysis) call graph over every loaded package.
// Per-function analyzers see one body at a time; the call graph lets an
// analyzer follow facts across calls — lockorder propagates held-lock
// sets through it, and future analyzers (ctx cancellation, error-path
// audits) get the same substrate for free.
//
// Resolution rules, in order:
//
//   - static calls (pkg.F(), x.M() on a concrete receiver) bind to the
//     callee's declaration;
//   - interface method calls fan out to that method on every in-repo
//     named type whose method set implements the interface (CHA: no
//     points-to narrowing, so the graph over-approximates);
//   - method values (x.M used as a value) and bound references get a
//     KindRef edge — the method escapes into a function value that may
//     run anywhere, so flow-sensitive analyses treat it like a spawned
//     goroutine rather than an inline call;
//   - function literals get their own nodes (named parent$N).
//     A literal invoked at its use site — immediately called, deferred,
//     or passed as a call argument (the dominant callback pattern:
//     engine Scan/Ascend visitors, sort.Slice less, ast.Inspect) — is a
//     synchronous edge inheriting the caller's context; `go lit()` is a
//     KindGo edge that does not.
//
// Bodies outside the load (standard library, export-data-only imports)
// have no nodes; edges are only recorded between in-repo functions.

// CallKind classifies how an edge's callee is reached.
type CallKind int

const (
	// KindStatic is a direct call of a known function or method.
	KindStatic CallKind = iota
	// KindInterface is an interface method call resolved by CHA fan-out.
	KindInterface
	// KindDefer is a deferred call; it runs in the caller's frame at
	// return, so flow analyses treat it as synchronous.
	KindDefer
	// KindGo is a `go` statement: the callee runs concurrently and
	// inherits nothing from the caller's flow state.
	KindGo
	// KindLit is a function literal invoked at its use site: an IIFE, a
	// deferred literal, or a literal passed as a call argument (assumed
	// to be a synchronous callback).
	KindLit
	// KindRef is a reference that escapes as a value — a method value,
	// or a literal assigned/returned rather than invoked. The callee may
	// run at any time with any context.
	KindRef
)

// Synchronous reports whether the callee (conservatively) runs during
// the caller's execution of the call site, so caller flow state (held
// locks) applies on entry.
func (k CallKind) Synchronous() bool {
	switch k {
	case KindStatic, KindInterface, KindDefer, KindLit:
		return true
	}
	return false
}

// Edge is one resolved call site.
type Edge struct {
	Caller *Node
	Callee *Node
	Pos    token.Pos
	Kind   CallKind
}

// Node is one in-repo function: a declared function or method (Obj set)
// or a function literal (Lit set). Bodies are always available — nodes
// exist only for functions whose source was loaded.
type Node struct {
	Obj  *types.Func   // nil for literals
	Lit  *ast.FuncLit  // nil for declared functions
	Decl *ast.FuncDecl // nil for literals
	Pkg  *Package
	Out  []*Edge
	In   []*Edge

	name string
}

// Name returns a stable human-readable identity:
// "(*spanner.DB).maybeSplit", "storage.openSegment", or
// "(*spanner.DB).maybeSplit$1" for the first literal inside it.
func (n *Node) String() string { return n.name }

// CallGraph holds every node and edge of one Program.
type CallGraph struct {
	nodes map[*types.Func]*Node
	lits  map[*ast.FuncLit]*Node
	// All lists every node in deterministic (name) order.
	All []*Node

	// implementers memoizes CHA fan-out per interface type.
	implementers map[*types.Interface][]*types.Named
	namedTypes   []*types.Named
}

// NodeOf returns the node for a declared function or method, or nil if
// its body was not part of the load. Generic instantiations resolve to
// their origin.
func (g *CallGraph) NodeOf(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	return g.nodes[fn.Origin()]
}

// Program is one whole-repository load: every package plus the call
// graph over them. Interprocedural analyzers receive it via ProgramPass.
type Program struct {
	Packages []*Package
	Fset     *token.FileSet
	Graph    *CallGraph

	timelines map[*Node]*lockSummary // see lockTimeline
}

// BuildProgram assembles the program and its call graph.
func BuildProgram(pkgs []*Package) *Program {
	var fset *token.FileSet
	if len(pkgs) > 0 {
		fset = pkgs[0].Fset
	}
	prog := &Program{Packages: pkgs, Fset: fset, timelines: map[*Node]*lockSummary{}}
	prog.Graph = buildCallGraph(pkgs)
	return prog
}

func funcName(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	pkg := ""
	if fn.Pkg() != nil {
		pkg = shortPkg(fn.Pkg().Path())
	}
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		ptr := ""
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			ptr = "*"
		}
		tn := types.TypeString(t, func(p *types.Package) string { return shortPkg(p.Path()) })
		if ptr != "" {
			return fmt.Sprintf("(*%s).%s", tn, fn.Name())
		}
		return fmt.Sprintf("(%s).%s", tn, fn.Name())
	}
	return pkg + "." + fn.Name()
}

// shortPkg trims the module prefix for readability: firestore/internal/spanner -> spanner.
func shortPkg(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

func buildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		nodes:        map[*types.Func]*Node{},
		lits:         map[*ast.FuncLit]*Node{},
		implementers: map[*types.Interface][]*types.Named{},
	}

	// Pass 1: a node per declared function with a body, plus the named
	// types for CHA.
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &Node{Obj: obj, Decl: fd, Pkg: pkg, name: funcName(obj)}
				g.nodes[obj.Origin()] = n
			}
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				if !types.IsInterface(named) {
					g.namedTypes = append(g.namedTypes, named)
				}
			}
		}
	}

	// Pass 2: edges.
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj := pkg.Info.Defs[fd.Name].(*types.Func)
				if root := g.nodes[obj.Origin()]; root != nil {
					g.walkBody(root, fd.Body, pkg)
				}
			}
		}
	}

	for _, n := range g.nodes {
		g.All = append(g.All, n)
	}
	for _, n := range g.lits {
		g.All = append(g.All, n)
	}
	sort.Slice(g.All, func(i, j int) bool {
		if g.All[i].name != g.All[j].name {
			return g.All[i].name < g.All[j].name
		}
		return posOf(g.All[i]) < posOf(g.All[j])
	})
	return g
}

func posOf(n *Node) token.Pos {
	if n.Decl != nil {
		return n.Decl.Pos()
	}
	if n.Lit != nil {
		return n.Lit.Pos()
	}
	return token.NoPos
}

// walkBody records the edges inside one function node, descending into
// function literals (which become their own nodes rooted at cur).
func (g *CallGraph) walkBody(cur *Node, body ast.Node, pkg *Package) {
	litCount := 0
	// handled marks literals and call/selector expressions consumed by a
	// containing construct (an IIFE's literal, a go/defer call's Fun) so
	// the generic visitor does not double-count them.
	handledLit := map[*ast.FuncLit]bool{}
	handledCall := map[*ast.CallExpr]CallKind{}
	handledSel := map[*ast.SelectorExpr]bool{}

	var walk func(n ast.Node)

	litNode := func(lit *ast.FuncLit) *Node {
		if n, ok := g.lits[lit]; ok {
			return n
		}
		litCount++
		n := &Node{Lit: lit, Pkg: pkg, name: fmt.Sprintf("%s$%d", cur.name, litCount)}
		g.lits[lit] = n
		return n
	}

	addEdge := func(callee *Node, pos token.Pos, kind CallKind) {
		if callee == nil {
			return
		}
		e := &Edge{Caller: cur, Callee: callee, Pos: pos, Kind: kind}
		cur.Out = append(cur.Out, e)
		callee.In = append(callee.In, e)
	}

	// resolveCall adds edges for one call expression with the given kind
	// for static/interface resolution (kind is KindStatic for plain
	// calls, KindDefer/KindGo for defer/go statements).
	resolveCall := func(call *ast.CallExpr, kind CallKind) {
		fun := ast.Unparen(call.Fun)
		if lit, ok := fun.(*ast.FuncLit); ok {
			// Immediately invoked literal (or `go func(){}()` / `defer func(){}()`).
			handledLit[lit] = true
			ln := litNode(lit)
			g.walkBody(ln, lit.Body, pkg)
			litKind := KindLit
			if kind == KindGo {
				litKind = KindGo
			} else if kind == KindDefer {
				litKind = KindDefer
			}
			addEdge(ln, call.Pos(), litKind)
			return
		}
		if sel, ok := fun.(*ast.SelectorExpr); ok {
			handledSel[sel] = true
			if s, isSel := pkg.Info.Selections[sel]; isSel && s.Kind() == types.MethodVal {
				recv := s.Recv()
				if types.IsInterface(recv) {
					ik := KindInterface
					if kind == KindGo {
						ik = KindGo
					} else if kind == KindDefer {
						ik = KindDefer
					}
					for _, callee := range g.chaCallees(recv, sel.Sel.Name) {
						addEdge(callee, call.Pos(), ik)
					}
					return
				}
			}
		}
		if obj := calleeOf(pkg.Info, call); obj != nil {
			if fn, ok := obj.(*types.Func); ok {
				addEdge(g.NodeOf(fn), call.Pos(), kind)
			}
		}
	}

	walk = func(n ast.Node) {
		switch n := n.(type) {
		case *ast.FuncLit:
			if handledLit[n] {
				return
			}
			// Literal not consumed by a call: it escapes as a value
			// unless an enclosing CallExpr argument position already
			// tagged it (handled in the CallExpr case below).
			handledLit[n] = true
			ln := litNode(n)
			g.walkBody(ln, n.Body, pkg)
			addEdge(ln, n.Pos(), KindRef)
			return
		case *ast.GoStmt:
			handledCall[n.Call] = KindGo
			resolveCall(n.Call, KindGo)
			for _, arg := range n.Call.Args {
				walk(arg)
			}
			return
		case *ast.DeferStmt:
			handledCall[n.Call] = KindDefer
			resolveCall(n.Call, KindDefer)
			for _, arg := range n.Call.Args {
				walk(arg)
			}
			return
		case *ast.CallExpr:
			if _, done := handledCall[n]; !done {
				resolveCall(n, KindStatic)
			}
			// Literal arguments are synchronous callbacks at this site.
			for _, arg := range n.Args {
				if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					handledLit[lit] = true
					ln := litNode(lit)
					g.walkBody(ln, lit.Body, pkg)
					addEdge(ln, lit.Pos(), KindLit)
					continue
				}
				walk(arg)
			}
			// The call's own Fun was resolved above; descend only into a
			// selector's receiver expression (for nested calls such as
			// a.b().c()), never re-visiting the resolved ident itself.
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				walk(sel.X)
			}
			return
		case *ast.SelectorExpr:
			if !handledSel[n] {
				if s, isSel := pkg.Info.Selections[n]; isSel &&
					(s.Kind() == types.MethodVal || s.Kind() == types.MethodExpr) {
					// Method value or expression: x.M / T.M escaping as a
					// function value.
					handledSel[n] = true
					recv := s.Recv()
					if s.Kind() == types.MethodVal && types.IsInterface(recv) {
						for _, callee := range g.chaCallees(recv, n.Sel.Name) {
							addEdge(callee, n.Pos(), KindRef)
						}
					} else if fn, ok := s.Obj().(*types.Func); ok {
						addEdge(g.NodeOf(fn), n.Pos(), KindRef)
					}
				}
			}
		case *ast.Ident:
			// A bare reference to a declared function outside call
			// position (f := helper, return helper) escapes as a value.
			if fn, ok := pkg.Info.Uses[n].(*types.Func); ok {
				if fn.Type().(*types.Signature).Recv() == nil {
					addEdge(g.NodeOf(fn), n.Pos(), KindRef)
				}
			}
			return
		}
		// Generic descent.
		ast.Inspect(n, func(child ast.Node) bool {
			if child == nil || child == n {
				return child == n
			}
			walk(child)
			return false
		})
	}

	// Top-level: walk each statement of the body.
	if blk, ok := body.(*ast.BlockStmt); ok {
		for _, stmt := range blk.List {
			walk(stmt)
		}
	} else {
		walk(body)
	}
}

// chaCallees resolves an interface method call to that method on every
// in-repo named type implementing the interface.
func (g *CallGraph) chaCallees(recv types.Type, method string) []*Node {
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	impls, cached := g.implementers[iface]
	if !cached {
		for _, named := range g.namedTypes {
			if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
				impls = append(impls, named)
			}
		}
		g.implementers[iface] = impls
	}
	var out []*Node
	for _, named := range impls {
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, nil, method)
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if n := g.NodeOf(fn); n != nil {
			out = append(out, n)
		}
	}
	return out
}
