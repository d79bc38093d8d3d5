package analysis

import (
	"path/filepath"
	"testing"
)

// callgraphProgram loads the testdata/src/callgraph fixture and builds
// its Program once per test binary.
func callgraphProgram(t *testing.T) *Program {
	t.Helper()
	l := goldenLoader(t)
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", "callgraph"), "fslint/testdata/callgraph")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	return BuildProgram([]*Package{pkg})
}

// edgesFrom collects caller's out-edges as callee name -> kinds.
func edgesFrom(prog *Program, caller string) map[string][]CallKind {
	out := map[string][]CallKind{}
	for _, n := range prog.Graph.All {
		if n.String() != caller {
			continue
		}
		for _, e := range n.Out {
			out[e.Callee.String()] = append(out[e.Callee.String()], e.Kind)
		}
	}
	return out
}

func wantEdge(t *testing.T, prog *Program, caller, callee string, kind CallKind) {
	t.Helper()
	for _, k := range edgesFrom(prog, caller)[callee] {
		if k == kind {
			return
		}
	}
	t.Errorf("missing edge %s -> %s of kind %d; edges from caller: %v",
		caller, callee, kind, edgesFrom(prog, caller))
}

func TestCallGraphStaticCall(t *testing.T) {
	prog := callgraphProgram(t)
	wantEdge(t, prog, "callgraph.direct", "(*callgraph.memStore).Get", KindStatic)
	wantEdge(t, prog, "callgraph.usesCallback", "callgraph.callback", KindStatic)
}

func TestCallGraphInterfaceFanOut(t *testing.T) {
	prog := callgraphProgram(t)
	// The interface call must fan out to every in-repo implementer —
	// pointer-receiver and value-receiver alike — and to nothing else.
	wantEdge(t, prog, "callgraph.lookup", "(*callgraph.memStore).Get", KindInterface)
	wantEdge(t, prog, "callgraph.lookup", "(callgraph.diskStore).Get", KindInterface)
	if got := edgesFrom(prog, "callgraph.lookup"); len(got) != 2 {
		t.Errorf("lookup should have exactly the two fan-out edges, got %v", got)
	}
}

func TestCallGraphDeferAndGo(t *testing.T) {
	prog := callgraphProgram(t)
	wantEdge(t, prog, "callgraph.deferred", "(*callgraph.memStore).Get", KindDefer)
	wantEdge(t, prog, "callgraph.spawns", "(*callgraph.memStore).Get", KindGo)
}

func TestCallGraphMethodValueAndFuncRef(t *testing.T) {
	prog := callgraphProgram(t)
	// Method values and bare function references escape as values: the
	// edge exists (reachability) but is not synchronous (no flow state).
	wantEdge(t, prog, "callgraph.methodValue", "(*callgraph.memStore).Get", KindRef)
	wantEdge(t, prog, "callgraph.escapes", "callgraph.direct", KindRef)
	if KindRef.Synchronous() || KindGo.Synchronous() {
		t.Error("ref/go edges must not be synchronous")
	}
	if !KindStatic.Synchronous() || !KindInterface.Synchronous() ||
		!KindDefer.Synchronous() || !KindLit.Synchronous() {
		t.Error("static/interface/defer/lit edges must be synchronous")
	}
}

func TestCallGraphLiterals(t *testing.T) {
	prog := callgraphProgram(t)
	// A literal passed as a call argument is a synchronous callback; its
	// body is a separate node that carries its own static edges.
	wantEdge(t, prog, "callgraph.usesCallback", "callgraph.usesCallback$1", KindLit)
	wantEdge(t, prog, "callgraph.usesCallback$1", "callgraph.direct", KindStatic)
	wantEdge(t, prog, "callgraph.iife", "callgraph.iife$1", KindLit)
	wantEdge(t, prog, "callgraph.iife$1", "callgraph.direct", KindStatic)
}

// TestCallGraphDeterministic pins the All ordering: witness chains and
// golden findings depend on it being stable run to run.
func TestCallGraphDeterministic(t *testing.T) {
	a, b := callgraphProgram(t), callgraphProgram(t)
	if len(a.Graph.All) != len(b.Graph.All) {
		t.Fatalf("node counts differ: %d vs %d", len(a.Graph.All), len(b.Graph.All))
	}
	for i := range a.Graph.All {
		if a.Graph.All[i].String() != b.Graph.All[i].String() {
			t.Errorf("All[%d]: %s vs %s", i, a.Graph.All[i], b.Graph.All[i])
		}
	}
}
