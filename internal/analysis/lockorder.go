package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder is the interprocedural deadlock analyzer: it infers each
// function's lock acquisition and held sets, propagates held sets
// through the call graph, builds a global ordering graph over mutex
// classes, and reports every cycle with the concrete call chains that
// acquire its edges in conflicting order.
//
// A mutex class is (struct type, field) — every tablet's t.mu is one
// class "spanner.tablet.mu" — or a package-level mutex variable.
// Local mutex variables are out of scope (they cannot participate in a
// cross-function ordering cycle without first becoming a field).
//
// Held sets come from three sources:
//
//   - direct x.mu.Lock()/RLock() earlier in the function (a plain
//     Unlock releases; a deferred Unlock holds to function end);
//   - the *Locked naming convention: fooLocked holds its receiver's
//     mutex (the field named mu, or the unique mutex field) on entry;
//   - synchronous call edges: the caller's held set applies inside
//     static callees, CHA interface fan-outs, deferred calls, and
//     function literals invoked at their use site. `go` bodies and
//     escaping references start empty.
//
// Same-class edges (lock two tablets) are excluded from cycle
// detection: ordering within a class needs an instance-level rule the
// analyzer cannot see (this repo's: left/lower-index tablet first —
// see DESIGN.md "Lock hierarchy"); they still appear in the -graph DOT
// output as dashed self-edges.
var LockOrder = &Analyzer{
	Name:       "lockorder",
	Doc:        "global lock-acquisition order is acyclic: held sets propagate through the call graph and every mutex-class cycle is reported with its witness chains",
	RunProgram: runLockOrder,
}

// lockCall reports whether call is a sync Mutex/RWMutex (or Locker)
// Lock/RLock/Unlock/RUnlock call, returning the method, the mutex class
// of its guard ("" for locals and unresolvable guards) and the guard's
// owner as expression text: t for t.mu.Lock(), mu for mu.Lock(), t for
// t.Lock() through an embedded mutex.
func lockCall(info *types.Info, call *ast.CallExpr) (method, class, owner string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", "", false
	}
	s, isMethod := info.Selections[sel]
	if !isMethod || s.Kind() != types.MethodVal {
		return "", "", "", false
	}
	fn, isFn := s.Obj().(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", "", false
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
		method = fn.Name()
	default:
		return "", "", "", false
	}

	guard := ast.Unparen(sel.X)
	switch g := guard.(type) {
	case *ast.SelectorExpr:
		owner = types.ExprString(g.X)
		// x.mu.Lock(): the class is (type of x, field mu).
		if gs, isField := info.Selections[g]; isField && gs.Kind() == types.FieldVal {
			field, _ := gs.Obj().(*types.Var)
			if class := namedOwnerOf(gs.Recv(), gs.Index(), field); class != "" {
				return method, class, owner, true
			}
		}
		// pkgname.Mu.Lock(): a qualified package-level mutex.
		if id, isIdent := g.X.(*ast.Ident); isIdent {
			if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
				if v, isVar := info.Uses[g.Sel].(*types.Var); isVar && v.Pkg() != nil {
					return method, shortPkg(v.Pkg().Path()) + "." + v.Name(), owner, true
				}
			}
		}
	case *ast.Ident:
		owner = g.Name
		// A package-level mutex variable; a local one is out of scope.
		if v, isVar := info.Uses[g].(*types.Var); isVar && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return method, shortPkg(v.Pkg().Path()) + "." + v.Name(), owner, true
		}
	default:
		owner = types.ExprString(guard)
		// x.Lock() through an embedded mutex: resolve the field path of
		// the method selection itself.
		if idx := s.Index(); len(idx) > 1 {
			return method, fieldPathClass(s.Recv(), idx[:len(idx)-1]), owner, true
		}
	}
	return method, "", owner, true
}

// namedOwnerOf renders the class "pkg.Type.field" for a field selection,
// resolving promoted fields through the selection index path.
func namedOwnerOf(recv types.Type, index []int, field *types.Var) string {
	if len(index) > 1 {
		return fieldPathClass(recv, index)
	}
	t := recv
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed || field == nil {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return ""
	}
	return shortPkg(obj.Pkg().Path()) + "." + obj.Name() + "." + field.Name()
}

// fieldPathClass walks a selection index path from recv and returns the
// class of the final field: the named type that declares it plus the
// field name.
func fieldPathClass(recv types.Type, index []int) string {
	t := recv
	var owner *types.Named
	var field *types.Var
	for _, i := range index {
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
		}
		named, _ := t.(*types.Named)
		st, isStruct := t.Underlying().(*types.Struct)
		if !isStruct || i >= st.NumFields() {
			return ""
		}
		owner, field = named, st.Field(i)
		t = field.Type()
	}
	if owner == nil || field == nil || owner.Obj().Pkg() == nil {
		return ""
	}
	return shortPkg(owner.Obj().Pkg().Path()) + "." + owner.Obj().Name() + "." + field.Name()
}

// lockStepKind is one kind of step in a function's lock timeline.
type lockStepKind int

const (
	stepAcquire      lockStepKind = iota // x.mu.Lock() or RLock()
	stepRelease                          // x.mu.Unlock() or RUnlock()
	stepDeferRelease                     // defer x.mu.Unlock(): held to return
	stepLockedCall                       // x.fooLocked(): needs x's mutex held
	stepCall                             // a synchronous call edge
)

// lockStep is one step of a function's lock timeline.
type lockStep struct {
	kind lockStepKind
	pos  token.Pos
	// class is a lock step's mutex class, "" for a local or unresolvable
	// guard: lockorder reads it.
	class string
	// owner is what lockdiscipline keys on: a lock step's guard owner
	// (see lockCall) or a *Locked call's receiver, as expression text.
	owner    string
	depth    int       // conditional statements enclosing a lock step
	scopeEnd token.Pos // end of the innermost block enclosing a lock step
	name     string    // the *Locked method
	edge     *Edge     // stepCall
}

// lockSummary is one node's lock timeline: every step of its own body
// (nested function literals are their own nodes), in source order.
type lockSummary struct {
	steps []lockStep
	// direct lists classes this node's own body acquires (even if
	// released before return), with the first acquisition site.
	direct map[string]token.Pos
}

// acqVia records how a node comes to (transitively) acquire a class:
// directly at pos, or through edge to the next node in the chain.
type acqVia struct {
	pos  token.Pos
	edge *Edge
}

// lockOrderState is the shared machinery between the analyzer and the
// fslint -graph DOT export.
type lockOrderState struct {
	prog      *Program
	trans     map[*Node]map[string]acqVia
	entryHeld map[*Node][]string
	entryDone map[*Node]bool

	// edges is the mutex-class ordering graph: from -> to -> witness.
	edges map[string]map[string]*lockWitness
	// selfEdges records same-class acquisitions (excluded from cycles).
	selfEdges map[string]*lockWitness
}

// lockWitness is the concrete chain proving one ordering edge: the
// functions traversed from where the "from" class was held to the
// acquisition of the "to" class.
type lockWitness struct {
	chain []string // node names, caller first
	pos   token.Pos
}

func (w *lockWitness) render(fset *token.FileSet) string {
	p := fset.Position(w.pos)
	return fmt.Sprintf("%s (lock at %s:%d)", strings.Join(w.chain, " -> "), p.Filename, p.Line)
}

func newLockOrderState(prog *Program) *lockOrderState {
	st := &lockOrderState{
		prog:      prog,
		trans:     map[*Node]map[string]acqVia{},
		entryHeld: map[*Node][]string{},
		entryDone: map[*Node]bool{},
		edges:     map[string]map[string]*lockWitness{},
		selfEdges: map[string]*lockWitness{},
	}
	st.propagate()
	for _, n := range prog.Graph.All {
		st.addNodeEdges(n)
	}
	return st
}

// lockTimeline returns n's lock timeline, walking its body once per
// program: lockorder and lockdiscipline both read it.
func (p *Program) lockTimeline(n *Node) *lockSummary {
	sum, ok := p.timelines[n]
	if !ok {
		sum = summarizeLocks(n)
		p.timelines[n] = sum
	}
	return sum
}

// summarizeLocks walks one node's own body and records its lock
// timeline: each sync lock call with its class, owner and conditional
// depth, each *Locked method call with its receiver, and each
// synchronous call edge.
func summarizeLocks(n *Node) *lockSummary {
	sum := &lockSummary{direct: map[string]token.Pos{}}
	var body *ast.BlockStmt
	if n.Decl != nil {
		body = n.Decl.Body
	} else {
		body = n.Lit.Body
	}
	info := n.Pkg.Info

	// Call edges by site, so the walk can interleave them with lock
	// events in position order.
	edgesAt := map[token.Pos][]*Edge{}
	for _, e := range n.Out {
		if e.Kind.Synchronous() {
			edgesAt[e.Pos] = append(edgesAt[e.Pos], e)
		}
	}

	deferred := map[*ast.CallExpr]bool{}
	var stack []ast.Node // the walk's ancestors, for conditional depth
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case nil:
			stack = stack[:len(stack)-1]
			return true
		case *ast.FuncLit:
			return false // separate node
		case *ast.DeferStmt:
			deferred[x.Call] = true
		case *ast.CallExpr:
			if method, class, owner, isLock := lockCall(info, x); isLock {
				step := lockStep{kind: stepAcquire, pos: x.Pos(), class: class, owner: owner}
				for _, a := range stack {
					switch a.(type) {
					case *ast.IfStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.ForStmt, *ast.RangeStmt:
						step.depth++
					case *ast.BlockStmt, *ast.CaseClause, *ast.CommClause:
						step.scopeEnd = a.End()
					}
				}
				switch {
				case method == "Unlock" || method == "RUnlock":
					step.kind = stepRelease
					if deferred[x] {
						step.kind = stepDeferRelease
					}
				case class != "":
					if _, seen := sum.direct[class]; !seen {
						sum.direct[class] = x.Pos()
					}
				}
				sum.steps = append(sum.steps, step)
				break
			}
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && isLockedName(sel.Sel.Name) && info.Selections[sel] != nil {
				sum.steps = append(sum.steps, lockStep{kind: stepLockedCall, pos: x.Pos(), owner: types.ExprString(sel.X), name: sel.Sel.Name})
			}
			for _, e := range edgesAt[x.Pos()] {
				sum.steps = append(sum.steps, lockStep{kind: stepCall, pos: x.Pos(), edge: e})
			}
		}
		stack = append(stack, x)
		return true
	})
	// Function-literal edges (callback arguments, IIFEs) register at the
	// literal's own position; deferred/escaping edges at their sites.
	for pos, edges := range edgesAt {
		for _, e := range edges {
			if e.Callee.Lit != nil || e.Kind == KindDefer {
				sum.steps = append(sum.steps, lockStep{kind: stepCall, pos: pos, edge: e})
			}
		}
	}
	sort.SliceStable(sum.steps, func(i, j int) bool { return sum.steps[i].pos < sum.steps[j].pos })
	// A call edge can be recorded twice (CallExpr walk + the literal
	// loop); dedupe by edge.
	out := sum.steps[:0]
	seen := map[*Edge]bool{}
	for _, step := range sum.steps {
		if step.kind == stepCall {
			if seen[step.edge] {
				continue
			}
			seen[step.edge] = true
		}
		out = append(out, step)
	}
	sum.steps = out
	return sum
}

// entryHeldOf computes the classes held when n starts executing: the
// *Locked convention for named methods, the caller's held-at-site for
// synchronously invoked literals.
func (st *lockOrderState) entryHeldOf(n *Node) []string {
	if st.entryDone[n] {
		return st.entryHeld[n]
	}
	st.entryDone[n] = true // set before recursing: cycles resolve to empty
	var held []string
	switch {
	case n.Obj != nil && isLockedName(n.Obj.Name()):
		if class := receiverMutexClass(n.Obj); class != "" {
			held = []string{class}
		}
	case n.Lit != nil:
		// A literal has one syntactic site; find its incoming edge.
		for _, e := range n.In {
			if e.Kind == KindLit || e.Kind == KindDefer {
				parent := e.Caller
				held = append(append([]string{}, st.entryHeldOf(parent)...),
					st.heldAt(parent, e.Pos)...)
			}
			break
		}
	}
	held = dedupeStrings(held)
	st.entryHeld[n] = held
	return held
}

// receiverMutexClass resolves which mutex a *Locked method holds by
// convention: the receiver's field named mu, else its unique
// sync.Mutex/RWMutex field.
func receiverMutexClass(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	t := recv.Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return ""
	}
	st, isStruct := named.Underlying().(*types.Struct)
	if !isStruct {
		return ""
	}
	class := func(f *types.Var) string {
		return shortPkg(named.Obj().Pkg().Path()) + "." + named.Obj().Name() + "." + f.Name()
	}
	var only *types.Var
	count := 0
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if isNamedType(f.Type(), "sync", "Mutex") || isNamedType(f.Type(), "sync", "RWMutex") {
			if f.Name() == "mu" {
				return class(f)
			}
			only = f
			count++
		}
	}
	if count == 1 {
		return class(only)
	}
	return ""
}

// heldAt replays n's lock timeline up to (but excluding) pos and
// returns the classes then held. A deferred unlock holds to function
// end.
func (st *lockOrderState) heldAt(n *Node, pos token.Pos) []string {
	var held []string
	for _, step := range st.prog.lockTimeline(n).steps {
		if step.pos >= pos {
			break
		}
		held = step.apply(held)
	}
	return held
}

// apply returns held after a lock step: an acquisition adds its class,
// a release drops the latest hold of it. Other steps, and lock steps on
// a local or unresolvable guard, leave held as it is.
func (step lockStep) apply(held []string) []string {
	if step.class == "" {
		return held
	}
	switch step.kind {
	case stepAcquire:
		return append(held, step.class)
	case stepRelease:
		for i := len(held) - 1; i >= 0; i-- {
			if held[i] == step.class {
				return append(held[:i], held[i+1:]...)
			}
		}
	}
	return held
}

// propagate computes, for every node, the set of classes a call to it
// may acquire (directly or transitively through synchronous edges),
// remembering one witness chain per class. Set-once BFS: chains stay
// acyclic and the fixpoint terminates.
func (st *lockOrderState) propagate() {
	var work []*Node
	for _, n := range st.prog.Graph.All {
		t := map[string]acqVia{}
		for class, pos := range st.prog.lockTimeline(n).direct {
			t[class] = acqVia{pos: pos}
		}
		st.trans[n] = t
		if len(t) > 0 {
			work = append(work, n)
		}
	}
	for len(work) > 0 {
		m := work[0]
		work = work[1:]
		for _, e := range m.In {
			if !e.Kind.Synchronous() {
				continue
			}
			caller := e.Caller
			changed := false
			for _, class := range sortedKeys(st.trans[m]) {
				if _, have := st.trans[caller][class]; !have {
					st.trans[caller][class] = acqVia{edge: e}
					changed = true
				}
			}
			if changed {
				work = append(work, caller)
			}
		}
	}
}

// chainOf reconstructs the witness chain for node n acquiring class.
func (st *lockOrderState) chainOf(n *Node, class string) ([]string, token.Pos) {
	var chain []string
	for {
		chain = append(chain, n.String())
		via, have := st.trans[n][class]
		if !have {
			return chain, token.NoPos
		}
		if via.edge == nil {
			return chain, via.pos
		}
		n = via.edge.Callee
	}
}

// addNodeEdges derives ordering-graph edges from one node: each direct
// acquisition while other classes are held, and each synchronous call
// whose callee transitively acquires while the caller holds.
func (st *lockOrderState) addNodeEdges(n *Node) {
	held := append([]string{}, st.entryHeldOf(n)...)
	for _, step := range st.prog.lockTimeline(n).steps {
		switch {
		case step.kind == stepAcquire && step.class != "":
			for _, h := range held {
				st.addEdge(h, step.class, &lockWitness{chain: []string{n.String()}, pos: step.pos})
			}
		case step.kind == stepCall && len(held) > 0 && step.edge.Callee.Lit == nil:
			// A literal callee re-derives the same edges with its own
			// entry held set; skipping it here avoids double counting
			// without losing coverage.
			callee := step.edge.Callee
			for _, class := range sortedKeys(st.trans[callee]) {
				tail, pos := st.chainOf(callee, class)
				if pos == token.NoPos {
					continue
				}
				chain := append([]string{n.String()}, tail...)
				for _, h := range held {
					st.addEdge(h, class, &lockWitness{chain: chain, pos: pos})
				}
			}
		}
		held = step.apply(held)
	}
}

func (st *lockOrderState) addEdge(from, to string, w *lockWitness) {
	if from == to {
		if _, have := st.selfEdges[from]; !have {
			st.selfEdges[from] = w
		}
		return
	}
	if st.edges[from] == nil {
		st.edges[from] = map[string]*lockWitness{}
	}
	if _, have := st.edges[from][to]; !have {
		st.edges[from][to] = w
	}
}

// cycles returns every elementary ordering cycle worth one finding: for
// each strongly connected component of the class graph, the shortest
// cycle through its smallest class.
func (st *lockOrderState) cycles() [][]string {
	classes := st.classList()
	index := map[string]int{}
	for i, c := range classes {
		index[c] = i
	}
	// Tarjan SCC, iterative over the small class graph.
	sccOf := make([]int, len(classes))
	for i := range sccOf {
		sccOf[i] = -1
	}
	low := make([]int, len(classes))
	disc := make([]int, len(classes))
	for i := range disc {
		disc[i] = -1
	}
	var stack []int
	onStack := make([]bool, len(classes))
	counter, sccCount := 0, 0
	var strongconnect func(v int)
	strongconnect = func(v int) {
		disc[v], low[v] = counter, counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		for _, wname := range sortedKeys(st.edges[classes[v]]) {
			w := index[wname]
			if disc[w] == -1 {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && disc[w] < low[v] {
				low[v] = disc[w]
			}
		}
		if low[v] == disc[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				sccOf[w] = sccCount
				if w == v {
					break
				}
			}
			sccCount++
		}
	}
	for v := range classes {
		if disc[v] == -1 {
			strongconnect(v)
		}
	}

	members := map[int][]string{}
	for i, c := range classes {
		members[sccOf[i]] = append(members[sccOf[i]], c)
	}
	var cycles [][]string
	for _, scc := range sortedIntKeys(members) {
		m := members[scc]
		if len(m) < 2 {
			continue
		}
		sort.Strings(m)
		if cyc := st.shortestCycle(m[0], m); cyc != nil {
			cycles = append(cycles, cyc)
		}
	}
	return cycles
}

// shortestCycle BFSes from start back to itself staying inside the SCC.
func (st *lockOrderState) shortestCycle(start string, scc []string) []string {
	in := map[string]bool{}
	for _, c := range scc {
		in[c] = true
	}
	prev := map[string]string{}
	queue := []string{start}
	visited := map[string]bool{start: true}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range sortedKeys(st.edges[v]) {
			if !in[w] {
				continue
			}
			if w == start {
				// Reconstruct start -> ... -> v, close with start.
				var rev []string
				for u := v; ; u = prev[u] {
					rev = append(rev, u)
					if u == start {
						break
					}
				}
				path := make([]string, 0, len(rev)+1)
				for i := len(rev) - 1; i >= 0; i-- {
					path = append(path, rev[i])
				}
				return append(path, start)
			}
			if !visited[w] {
				visited[w] = true
				prev[w] = v
				queue = append(queue, w)
			}
		}
	}
	return nil
}

func (st *lockOrderState) classList() []string {
	set := map[string]bool{}
	for from, tos := range st.edges {
		set[from] = true
		for to := range tos {
			set[to] = true
		}
	}
	for c := range st.selfEdges {
		set[c] = true
	}
	var out []string
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

func runLockOrder(pass *ProgramPass) {
	st := newLockOrderState(pass.Prog)
	for _, cyc := range st.cycles() {
		var parts []string
		var pos token.Pos
		for i := 0; i+1 < len(cyc); i++ {
			w := st.edges[cyc[i]][cyc[i+1]]
			if w == nil {
				continue
			}
			if pos == token.NoPos {
				pos = w.pos
			}
			parts = append(parts, fmt.Sprintf("%s -> %s via %s", cyc[i], cyc[i+1], w.render(pass.Prog.Fset)))
		}
		pass.Reportf(pos, "lock-order cycle %s: %s",
			strings.Join(cyc, " -> "), strings.Join(parts, "; "))
	}
}

// LockOrderDOT renders the lock-ordering graph over prog as Graphviz
// DOT: solid edges are cross-class acquisition orders (labeled with the
// head of their witness chain), dashed self-loops mark same-class
// multi-instance acquisitions whose ordering rule is instance-level,
// and any cycle is colored red. fslint -graph emits this for DESIGN.md.
func LockOrderDOT(prog *Program) string {
	st := newLockOrderState(prog)
	inCycle := map[string]bool{}
	for _, cyc := range st.cycles() {
		for _, c := range cyc {
			inCycle[c] = true
		}
	}
	var b strings.Builder
	b.WriteString("digraph lockorder {\n")
	b.WriteString("  rankdir=LR;\n  node [shape=box, fontname=\"monospace\"];\n")
	for _, c := range st.classList() {
		if inCycle[c] {
			fmt.Fprintf(&b, "  %q [color=red];\n", c)
		} else {
			fmt.Fprintf(&b, "  %q;\n", c)
		}
	}
	for _, from := range sortedKeys(st.edges) {
		for _, to := range sortedKeys(st.edges[from]) {
			w := st.edges[from][to]
			attr := ""
			if inCycle[from] && inCycle[to] {
				attr = ", color=red"
			}
			fmt.Fprintf(&b, "  %q -> %q [label=%q%s];\n", from, to, w.chain[0], attr)
		}
	}
	for _, c := range sortedKeys(st.selfEdges) {
		fmt.Fprintf(&b, "  %q -> %q [style=dashed, label=\"multi-instance\"];\n", c, c)
	}
	b.WriteString("}\n")
	return b.String()
}

func dedupeStrings(in []string) []string {
	seen := map[string]bool{}
	out := in[:0]
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedIntKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
