package spanner

import (
	"context"
	"slices"
	"sync"
	"time"

	"firestore/internal/truetime"
)

// lockMode is a row lock mode.
type lockMode int

const (
	lockShared lockMode = iota
	lockExclusive
)

// lockEntry tracks the holders of one row lock and the channel its
// waiting transactions share (closed on any release so waiters re-check).
// Nearly every lock has one holder, which lives in the entry itself; only
// a second shared holder allocates.
type lockEntry struct {
	mode    lockMode
	holders []*Txn        // exactly one when mode is lockExclusive
	first   [1]*Txn       // backing array of a single holder
	wake    chan struct{} // nil while nobody waits
}

// lockTable is the database-wide row lock manager. Deadlocks are resolved
// by timeout-and-abort, matching the paper's description of query/write
// contention behavior (§IV-D3). Lock deadlines come from the database's
// TrueTime clock, not the wall clock, so contention behavior is
// deterministic under a Manual clock and replayable.
type lockTable struct {
	clock truetime.Clock
	mu    sync.Mutex
	locks map[string]*lockEntry
}

func newLockTable(clock truetime.Clock) *lockTable {
	return &lockTable{clock: clock, locks: map[string]*lockEntry{}}
}

// grant gives txn the lock in mode if the current holders allow it,
// upgrading shared to exclusive when txn is the sole holder.
func (e *lockEntry) grant(txn *Txn, mode lockMode) bool {
	held := slices.Contains(e.holders, txn)
	switch {
	case len(e.holders) == 0:
		e.holders, e.mode = append(e.first[:0], txn), mode
	case held && len(e.holders) == 1:
		e.mode = max(e.mode, mode)
	case mode == lockExclusive || e.mode == lockExclusive:
		return false
	case !held:
		e.holders = append(e.holders, txn)
	}
	return true
}

// lockPoll bounds how long a lock waiter sleeps before re-reading the
// TrueTime clock: a Manual clock advances without waking real-time
// timers, so expiry is noticed by polling.
const lockPoll = 5 * time.Millisecond

// acquire takes the lock on key for txn, blocking up to timeout of the
// database's TrueTime clock (zero: not at all). A nil return means the
// lock is held (recorded in txn.held).
func (lt *lockTable) acquire(ctx context.Context, txn *Txn, key string, mode lockMode, timeout time.Duration) error {
	deadline := lt.clock.Now().Latest.Add(timeout)
	lt.mu.Lock()
	for {
		e, ok := lt.locks[key]
		if !ok {
			e = &lockEntry{}
			lt.locks[key] = e
		}
		if e.grant(txn, mode) {
			lt.mu.Unlock()
			return nil
		}
		if timeout == 0 {
			lt.mu.Unlock()
			return ErrAborted
		}
		if e.wake == nil {
			e.wake = make(chan struct{})
		}
		ch := e.wake
		lt.mu.Unlock()

		if lt.clock.After(deadline) {
			return ErrAborted
		}
		wait := deadline.Sub(lt.clock.Now().Earliest)
		if wait <= 0 {
			wait = time.Microsecond
		} else if wait > lockPoll {
			wait = lockPoll
		}
		timer := time.NewTimer(wait)
		select {
		case <-ch:
			timer.Stop()
		case <-timer.C:
			// Watchdog tick: loop to re-check the deadline and grant.
		case <-ctx.Done():
			timer.Stop()
			return ctx.Err()
		}
		lt.mu.Lock()
	}
}

// release drops all locks held by txn on the given keys and wakes
// waiters.
func (lt *lockTable) release(txn *Txn, keys map[string]lockMode) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	for key := range keys {
		e, ok := lt.locks[key]
		if !ok {
			continue
		}
		if i := slices.Index(e.holders, txn); i >= 0 {
			e.holders = slices.Delete(e.holders, i, i+1)
		}
		if e.wake != nil {
			close(e.wake)
			e.wake = nil
		}
		if len(e.holders) == 0 {
			delete(lt.locks, key)
		}
	}
}
