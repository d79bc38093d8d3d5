// Package truetime provides a TrueTime-style clock abstraction: a clock
// whose readings carry an explicit uncertainty interval, as described for
// Spanner in the Firestore paper (§IV-D1). Spanner relies on TrueTime to
// assign externally consistent commit timestamps; Firestore in turn relies
// on those timestamps for its real-time query machinery.
//
// In production TrueTime is backed by GPS and atomic clocks; here it is
// backed by the machine's monotonic clock plus a configurable uncertainty
// bound epsilon. The API contract is the same: Now returns an interval
// [Earliest, Latest] guaranteed to contain absolute time, and a correct
// user performs "commit wait" by blocking until After(ts) holds before
// making a timestamp visible.
package truetime

import (
	"sync"
	"sync/atomic"
	"time"
)

// Timestamp is a monotonic timestamp in nanoseconds since an arbitrary
// epoch. Timestamps produced by a single Clock are totally ordered and,
// together with commit wait, externally consistent.
type Timestamp int64

// Zero is the zero timestamp; it precedes every timestamp a Clock issues.
const Zero Timestamp = 0

// Max is the largest representable timestamp.
const Max Timestamp = 1<<63 - 1

// After reports whether t is strictly later than u.
func (t Timestamp) After(u Timestamp) bool { return t > u }

// Add returns t shifted by d.
func (t Timestamp) Add(d time.Duration) Timestamp { return t + Timestamp(d) }

// Sub returns the duration t-u.
func (t Timestamp) Sub(u Timestamp) time.Duration { return time.Duration(t - u) }

// Interval is a TrueTime reading: absolute time is guaranteed to lie in
// [Earliest, Latest].
type Interval struct {
	Earliest Timestamp
	Latest   Timestamp
}

// Clock is the TrueTime API. Implementations must be safe for concurrent
// use.
type Clock interface {
	// Now returns the current uncertainty interval.
	Now() Interval
	// After reports whether ts has definitely passed (TT.after in the
	// Spanner paper): true iff ts < Now().Earliest.
	After(ts Timestamp) bool
	// CommitWait blocks until After(ts) holds. It is called by the
	// storage engine before acknowledging a commit at ts.
	CommitWait(ts Timestamp)
	// Sleep blocks for d of this clock's time. Simulated clocks may
	// compress it.
	Sleep(d time.Duration)
}

// Forwarder is implemented by clocks that can be re-anchored to a
// recovered timestamp at startup. Production TrueTime is absolute, so a
// restarted node naturally resumes past every timestamp it ever issued;
// the clocks here measure time since clock creation, so recovery must
// explicitly fast-forward past the durable high-water mark to preserve
// external consistency across restarts.
type Forwarder interface {
	// Forward ensures every subsequent Now() reading is strictly later
	// than ts. Passing a timestamp that has already elapsed is a no-op.
	Forward(ts Timestamp)
}

// System is a Clock backed by the machine's monotonic clock with a fixed
// uncertainty epsilon. The zero value is not usable; use NewSystem.
type System struct {
	epsilon time.Duration
	origin  time.Time
	// base shifts the clock's epoch forward; see Forward.
	base atomic.Int64
	// last is used to guarantee strictly monotonic interval midpoints
	// even if the underlying clock stalls.
	last atomic.Int64
}

// NewSystem returns a system-clock-backed Clock with uncertainty epsilon.
// A smaller epsilon yields shorter commit waits; production TrueTime runs
// with epsilon of a few milliseconds.
func NewSystem(epsilon time.Duration) *System {
	if epsilon < 0 {
		epsilon = 0
	}
	// The System clock's origin is the one sanctioned wall-clock read:
	// every other timestamp in the engine derives from Clock.Now().
	return &System{epsilon: epsilon, origin: time.Now()} //fslint:ignore clockdiscipline the System clock is the wall-clock boundary itself
}

// Epsilon returns the clock's uncertainty bound.
func (c *System) Epsilon() time.Duration { return c.epsilon }

// Forward implements Forwarder by shifting the clock's epoch so that
// readings resume past ts and then advance at the wall rate (rather than
// stalling on the monotonic fence until wall time catches up).
func (c *System) Forward(ts Timestamp) {
	wall := int64(time.Since(c.origin)) //fslint:ignore clockdiscipline the System clock is the wall-clock boundary itself
	for {
		base := c.base.Load()
		if wall+base > int64(ts) {
			return
		}
		if c.base.CompareAndSwap(base, int64(ts)-wall+1) {
			return
		}
	}
}

// Now implements Clock.
func (c *System) Now() Interval {
	mid := int64(time.Since(c.origin)) + c.base.Load() //fslint:ignore clockdiscipline the System clock is the wall-clock boundary itself
	for {
		prev := c.last.Load()
		if mid <= prev {
			mid = prev + 1
		}
		if c.last.CompareAndSwap(prev, mid) {
			break
		}
	}
	eps := Timestamp(c.epsilon)
	return Interval{Earliest: Timestamp(mid) - eps, Latest: Timestamp(mid) + eps}
}

// After implements Clock.
func (c *System) After(ts Timestamp) bool { return c.Now().Earliest > ts }

// CommitWait implements Clock: it blocks until ts is definitely in the
// past, bounding the wait by 2*epsilon per iteration.
func (c *System) CommitWait(ts Timestamp) {
	for !c.After(ts) {
		remaining := ts.Sub(c.Now().Earliest)
		if remaining <= 0 {
			remaining = time.Microsecond
		}
		//fslint:ignore clockdiscipline System IS the wall-clock implementation; everyone else goes through it
		time.Sleep(remaining)
	}
}

// Sleep implements Clock.
func (c *System) Sleep(d time.Duration) {
	if d > 0 {
		//fslint:ignore clockdiscipline System IS the wall-clock implementation; everyone else goes through it
		time.Sleep(d)
	}
}

// Manual is a Clock whose time only advances when Advance is called. It is
// intended for deterministic tests: CommitWait on a Manual clock succeeds
// immediately once another goroutine advances time past the timestamp.
type Manual struct {
	mu      sync.Mutex
	cond    *sync.Cond
	now     Timestamp
	epsilon Timestamp
}

// NewManual returns a Manual clock starting at start with uncertainty
// epsilon.
func NewManual(start Timestamp, epsilon time.Duration) *Manual {
	m := &Manual{now: start, epsilon: Timestamp(epsilon)}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// Advance moves the clock forward by d and wakes any CommitWait-ers.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	m.now += Timestamp(d)
	m.mu.Unlock()
	m.cond.Broadcast()
}

// Set moves the clock to ts, which must not be earlier than the current
// reading.
func (m *Manual) Set(ts Timestamp) {
	m.mu.Lock()
	if ts > m.now {
		m.now = ts
	}
	m.mu.Unlock()
	m.cond.Broadcast()
}

// Now implements Clock.
func (m *Manual) Now() Interval {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Interval{Earliest: m.now - m.epsilon, Latest: m.now + m.epsilon}
}

// After implements Clock.
func (m *Manual) After(ts Timestamp) bool { return m.Now().Earliest > ts }

// CommitWait implements Clock, blocking until an Advance/Set moves the
// earliest bound past ts.
func (m *Manual) CommitWait(ts Timestamp) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.now-m.epsilon <= ts {
		m.cond.Wait()
	}
}

// Sleep implements Clock; on a manual clock it returns immediately so that
// tests never stall (time passage is controlled by Advance).
func (m *Manual) Sleep(time.Duration) {}
