// Package lockdiscipline is golden-test input for the *Locked calling
// convention and the conditional-Lock/defer-Unlock check.
package lockdiscipline

import "sync"

type table struct {
	mu    sync.Mutex
	items map[string]int
}

func (t *table) sizeLocked() int { return len(t.items) }

// Size holds the lock before the *Locked call: no finding.
func (t *table) Size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sizeLocked()
}

// doubleLocked inherits the lock by contract: no finding.
func (t *table) doubleLocked() int { return t.sizeLocked() * 2 }

// SizeRacy calls a *Locked method with nothing held.
func (t *table) SizeRacy() int {
	return t.sizeLocked() // want `t.sizeLocked requires t's mutex held`
}

// SpawnRacy holds the lock, but the goroutine body is a separate scope
// and outlives the critical section.
func (t *table) SpawnRacy() {
	t.mu.Lock()
	defer t.mu.Unlock()
	go func() {
		_ = t.sizeLocked() // want `t.sizeLocked requires t's mutex held`
	}()
}

// MaybeLock defers an unlock whose only matching Lock is conditional.
func (t *table) MaybeLock(cond bool) int {
	if cond {
		t.mu.Lock()
	}
	defer t.mu.Unlock() // want `every preceding t.Lock\(\) is inside a conditional`
	return len(t.items)
}
