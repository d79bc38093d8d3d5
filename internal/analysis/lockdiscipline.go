package analysis

import (
	"math"
	"strings"
)

// LockDiscipline enforces the *Locked naming convention used across the
// codebase: a method named fooLocked requires its receiver's mutex to be
// held. The checker approximates "mutex held" the way a reviewer reads
// one function, over the lock timeline lockorder builds for each
// call-graph node:
//
//   - the call appears in a method on the same receiver that is itself
//     *Locked (the caller inherited the lock), or
//   - earlier in the same function body, on the same receiver chain, a
//     sync .Lock()/.RLock() call appears (the caller acquired it), and
//     no .Unlock()/.RUnlock() of it follows in a block that encloses
//     the call (an unlock on an early-return branch does not reach it).
//
// Function literals are separate nodes: a goroutine body does not hold
// the lock its creator held. The analyzer additionally flags
// defer mu.Unlock() when every preceding mu.Lock() is inside a
// conditional (the defer then unlocks a mutex that may not be held).
// Copies of a mutex-containing value are go vet's copylocks.
var LockDiscipline = &Analyzer{
	Name:       "lockdiscipline",
	Doc:        "*Locked methods are called with the receiver's mutex held; no defer Unlock after a conditional Lock",
	RunProgram: runLockDiscipline,
}

func runLockDiscipline(pass *ProgramPass) {
	for _, n := range pass.Prog.Graph.All {
		steps := pass.Prog.lockTimeline(n).steps
		// A *Locked method holds its own receiver's lock by contract.
		inherited := ""
		if fd := n.Decl; fd != nil && isLockedName(fd.Name.Name) && fd.Recv != nil && len(fd.Recv.List[0].Names) > 0 {
			inherited = fd.Recv.List[0].Names[0].Name
		}
		for _, s := range steps {
			switch s.kind {
			case stepLockedCall:
				if s.owner == inherited || heldBefore(steps, s, math.MaxInt) {
					continue
				}
				pass.Reportf(s.pos,
					"%s.%s requires %s's mutex held: caller is not *Locked on %s and does not hold %s.<mu> here",
					s.owner, s.name, s.owner, s.owner, s.owner)
			case stepDeferRelease:
				if heldBefore(steps, s, math.MaxInt) && !heldBefore(steps, s, s.depth) {
					pass.Reportf(s.pos,
						"defer %s.Unlock() but every preceding %s.Lock() is inside a conditional; the mutex may not be held when the defer runs",
						s.owner, s.owner)
				}
			}
		}
	}
}

// heldBefore replays steps up to s, as lockorder's heldAt does, and
// reports whether s's owner is then held: a Lock or RLock inside at most
// depth conditional statements holds it, and an Unlock or RUnlock in a
// block that also encloses s releases it.
func heldBefore(steps []lockStep, s lockStep, depth int) bool {
	held := false
	for _, l := range steps {
		if l.pos >= s.pos {
			break
		}
		if l.owner != s.owner {
			continue
		}
		switch {
		case l.kind == stepAcquire && l.depth <= depth:
			held = true
		case l.kind == stepRelease && s.pos < l.scopeEnd:
			held = false
		}
	}
	return held
}

// isLockedName reports whether name follows the mutex-held naming
// convention (fooLocked), excluding the bare words themselves.
func isLockedName(name string) bool {
	return strings.HasSuffix(name, "Locked") && name != "Locked"
}
