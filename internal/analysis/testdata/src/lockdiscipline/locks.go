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

// SizeAfterUnlock releases the lock before the *Locked call.
func (t *table) SizeAfterUnlock() int {
	t.mu.Lock()
	t.mu.Unlock()
	return t.sizeLocked() // want `t.sizeLocked requires t's mutex held`
}

// SizeOrZero unlocks on an early return only, which does not reach the
// *Locked call: no finding.
func (t *table) SizeOrZero(skip bool) int {
	t.mu.Lock()
	if skip {
		t.mu.Unlock()
		return 0
	}
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

// Swap holds a's lock and calls a *Locked method on b: the check is
// keyed by instance, so another table's lock does not count.
func Swap(a, b *table) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return b.sizeLocked() // want `b.sizeLocked requires b's mutex held`
}

func (t *table) visit(f func()) { f() }

// SizeInCallback holds the lock around a synchronous callback, but the
// literal is a function of its own that takes no lock.
func (t *table) SizeInCallback() (n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.visit(func() {
		n = t.sizeLocked() // want `t.sizeLocked requires t's mutex held`
	})
	return n
}

// counter embeds its mutex: c.Lock() holds c's mutex.
type counter struct {
	sync.Mutex
	n int
}

func (c *counter) valueLocked() int { return c.n }

func (c *counter) Value() int {
	c.Lock()
	defer c.Unlock()
	return c.valueLocked()
}

// gate has a Lock method, but it is no sync mutex: calling it holds
// nothing.
type gate struct{ closed bool }

func (g *gate) Lock() { g.closed = true }

type gated struct {
	g gate
	n int
}

func (s *gated) countLocked() int { return s.n }

func (s *gated) Count() int {
	s.g.Lock()
	return s.countLocked() // want `s.countLocked requires s's mutex held`
}
