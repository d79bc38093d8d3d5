package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockDiscipline enforces the *Locked naming convention used across the
// codebase: a method named fooLocked requires its receiver's mutex to be
// held. The checker approximates "mutex held" syntactically — the rule a
// reviewer applies when reading one function:
//
//   - the call appears in a method on the same receiver that is itself
//     *Locked (the caller inherited the lock), or
//   - earlier in the same function body, on the same receiver chain, a
//     .Lock()/.RLock() call appears (the caller acquired it).
//
// Function literals are separate scopes: a goroutine body does not hold
// the lock its creator held. The analyzer additionally flags
// defer mu.Unlock() when every preceding mu.Lock() is inside a
// conditional (the defer then unlocks a mutex that may not be held).
// Copies of a mutex-containing value are go vet's copylocks.
var LockDiscipline = &Analyzer{
	Name: "lockdiscipline",
	Doc:  "*Locked methods are called with the receiver's mutex held; no defer Unlock after a conditional Lock",
	Run:  runLockDiscipline,
}

// lockEvent is one .Lock()/.RLock() acquisition seen in a function body.
type lockEvent struct {
	key   string // guard root: ExprString of the receiver owning the mutex
	pos   token.Pos
	depth int // number of enclosing conditional statements
	scope *ast.FuncLit
}

func runLockDiscipline(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkLockFunc(pass, fd)
			}
		}
	}
}

// receiverName returns the name of fd's receiver identifier, or "".
func receiverName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
}

func checkLockFunc(pass *Pass, fd *ast.FuncDecl) {
	recvName := receiverName(fd)
	funcLocked := strings.HasSuffix(fd.Name.Name, "Locked")

	type lockedCall struct {
		call  *ast.CallExpr
		recv  string
		name  string
		scope *ast.FuncLit
	}
	type deferUnlock struct {
		key   string
		pos   token.Pos
		depth int
		scope *ast.FuncLit
	}
	var (
		locks   []lockEvent
		calls   []lockedCall
		unlocks []deferUnlock
		stack   []ast.Node
		depthOf = func() int {
			d := 0
			for _, n := range stack {
				switch n.(type) {
				case *ast.IfStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.ForStmt, *ast.RangeStmt:
					d++
				}
			}
			return d
		}
		scopeOf = func() *ast.FuncLit {
			for i := len(stack) - 1; i >= 0; i-- {
				if fl, ok := stack[i].(*ast.FuncLit); ok {
					return fl
				}
			}
			return nil
		}
	)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		switch n := n.(type) {
		case *ast.DeferStmt:
			if key, name, ok := mutexCallTarget(n.Call); ok && (name == "Unlock" || name == "RUnlock") {
				unlocks = append(unlocks, deferUnlock{key: key, pos: n.Pos(), depth: depthOf(), scope: scopeOf()})
			}
		case *ast.CallExpr:
			if key, name, ok := mutexCallTarget(n); ok && (name == "Lock" || name == "RLock") {
				locks = append(locks, lockEvent{key: key, pos: n.Pos(), depth: depthOf(), scope: scopeOf()})
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && isLockedName(sel.Sel.Name) {
				if _, isMethod := pass.Info.Selections[sel]; isMethod {
					calls = append(calls, lockedCall{
						call:  n,
						recv:  types.ExprString(sel.X),
						name:  sel.Sel.Name,
						scope: scopeOf(),
					})
				}
			}
		}
		stack = append(stack, n)
		return true
	})

	lockedBefore := func(key string, pos token.Pos, scope *ast.FuncLit) bool {
		for _, l := range locks {
			if l.key == key && l.pos < pos && l.scope == scope {
				return true
			}
		}
		return false
	}

	for _, c := range calls {
		// A *Locked caller holds its own receiver's lock by contract.
		if funcLocked && c.scope == nil && c.recv == recvName {
			continue
		}
		if lockedBefore(c.recv, c.call.Pos(), c.scope) {
			continue
		}
		pass.Reportf(c.call.Pos(),
			"%s.%s requires %s's mutex held: caller is not *Locked on %s and no preceding %s.<mu>.Lock() in this function",
			c.recv, c.name, c.recv, c.recv, c.recv)
	}

	for _, u := range unlocks {
		held := false
		conditionalOnly := false
		for _, l := range locks {
			if l.key != u.key || l.pos >= u.pos || l.scope != u.scope {
				continue
			}
			if l.depth <= u.depth {
				held = true
				break
			}
			conditionalOnly = true
		}
		if !held && conditionalOnly {
			pass.Reportf(u.pos,
				"defer %s.Unlock() but every preceding %s.Lock() is inside a conditional; the mutex may not be held when the defer runs",
				u.key, u.key)
		}
	}
}

// isLockedName reports whether name follows the mutex-held naming
// convention (fooLocked), excluding the bare words themselves.
func isLockedName(name string) bool {
	return strings.HasSuffix(name, "Locked") && name != "Locked"
}

// mutexCallTarget decomposes a call of the form recv.mu.Lock() (or
// mu.Lock()) into the guard-root expression text and the method name.
// Only argument-less calls on selector chains qualify.
func mutexCallTarget(call *ast.CallExpr) (key, method string, ok bool) {
	if len(call.Args) != 0 {
		return "", "", false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	switch x := sel.X.(type) {
	case *ast.Ident:
		// mu.Lock(): the guard root is the mutex variable itself.
		return x.Name, sel.Sel.Name, true
	case *ast.SelectorExpr:
		// recv.mu.Lock(): the guard root is recv, so a later
		// recv.fooLocked() call matches.
		return types.ExprString(x.X), sel.Sel.Name, true
	default:
		return types.ExprString(sel.X), sel.Sel.Name, true
	}
}
