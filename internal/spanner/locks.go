package spanner

import (
	"context"
	"slices"
	"sync"
	"time"

	"firestore/internal/btree"
	"firestore/internal/truetime"
)

// lockMode is a row lock mode.
type lockMode int

const (
	lockShared lockMode = iota
	lockExclusive
)

// lockHolder is a transaction holding a row lock and the key slice it
// locked the row with: the transaction's own, kept until it ends.
type lockHolder struct {
	txn *Txn
	key []byte
}

// lockEntry tracks the holders of one row lock and the channel its
// waiting transactions share (closed on any release so waiters re-check).
// The lock table indexes it under holders[0].key. Nearly every lock has
// one holder, which lives in the entry itself; only a second shared
// holder allocates.
type lockEntry struct {
	mode    lockMode
	holders []lockHolder  // exactly one when mode is lockExclusive
	first   [1]lockHolder // backing array of a single holder
	wake    chan struct{} // nil while nobody waits
}

// maxFreeEntries bounds the drained entries a lock table keeps for reuse.
const maxFreeEntries = 64

// lockTable is the database-wide row lock manager. Deadlocks are resolved
// by timeout-and-abort, matching the paper's description of query/write
// contention behavior (§IV-D3). Lock deadlines come from the database's
// TrueTime clock, not the wall clock, so contention behavior is
// deterministic under a Manual clock and replayable.
//
// No row key is copied: each entry is indexed under its first holder's
// own key slice, and re-indexed under the next holder's when that one
// leaves first. The tree keeps its root leaf and up to maxFreeEntries
// entries when it drains, so a commit on an idle table allocates nothing
// here.
type lockTable struct {
	clock truetime.Clock
	mu    sync.Mutex
	locks btree.Tree[*lockEntry]
	free  []*lockEntry
}

func newLockTable(clock truetime.Clock) *lockTable {
	return &lockTable{clock: clock}
}

// index returns txn's position among the holders, or -1.
func (e *lockEntry) index(txn *Txn) int {
	for i := range e.holders {
		if e.holders[i].txn == txn {
			return i
		}
	}
	return -1
}

// grant gives txn the lock in mode if the current holders allow it,
// upgrading shared to exclusive when txn is the sole holder. added
// reports whether txn became a holder rather than was one.
func (e *lockEntry) grant(txn *Txn, key []byte, mode lockMode) (ok, added bool) {
	i := e.index(txn)
	switch {
	case len(e.holders) == 0:
		e.holders, e.mode = append(e.first[:0], lockHolder{txn, key}), mode
		return true, true
	case i >= 0 && len(e.holders) == 1:
		e.mode = max(e.mode, mode)
	case mode == lockExclusive || e.mode == lockExclusive:
		return false, false
	case i < 0:
		e.holders = append(e.holders, lockHolder{txn, key})
		return true, true
	}
	return true, false
}

// holds reports whether txn holds key in mode or a stronger one.
func (lt *lockTable) holds(txn *Txn, key []byte, mode lockMode) bool {
	if len(txn.held) == 0 {
		return false
	}
	lt.mu.Lock()
	defer lt.mu.Unlock()
	p := lt.locks.Get(key)
	return p != nil && (*p).index(txn) >= 0 && ((*p).mode == lockExclusive || mode == lockShared)
}

// lockPoll bounds how long a lock waiter sleeps before re-reading the
// TrueTime clock: a Manual clock advances without waking real-time
// timers, so expiry is noticed by polling.
const lockPoll = 5 * time.Millisecond

// acquire takes the lock on key for txn, blocking up to timeout of the
// database's TrueTime clock (zero: not at all), and returns how long it
// waited: zero, with no clock read, for a lock granted at once. A nil
// error means the lock is held; a lock txn did not hold before is added
// to txn.held, and the table keeps key until txn releases it.
func (lt *lockTable) acquire(ctx context.Context, txn *Txn, key []byte, mode lockMode, timeout time.Duration) (time.Duration, error) {
	var start, deadline truetime.Timestamp
	waiting := false
	lt.mu.Lock()
	for {
		p, ok := lt.locks.Upsert(key)
		if !ok {
			*p = lt.newEntry()
		}
		e := *p
		if granted, added := e.grant(txn, key, mode); granted {
			lt.mu.Unlock()
			if added {
				txn.held = append(txn.held, e)
			}
			if !waiting {
				return 0, nil
			}
			return lt.clock.Now().Latest.Sub(start), nil
		}
		if timeout == 0 {
			lt.mu.Unlock()
			return 0, ErrAborted
		}
		if e.wake == nil {
			e.wake = make(chan struct{})
		}
		ch := e.wake
		lt.mu.Unlock()

		if !waiting {
			waiting, start = true, lt.clock.Now().Latest
			deadline = start.Add(timeout)
		}
		if lt.clock.After(deadline) {
			return 0, ErrAborted
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
			return 0, ctx.Err()
		}
		lt.mu.Lock()
	}
}

func (lt *lockTable) newEntry() *lockEntry {
	n := len(lt.free)
	if n == 0 {
		return &lockEntry{}
	}
	e := lt.free[n-1]
	lt.free = lt.free[:n-1]
	return e
}

// release drops every lock txn holds and wakes their waiters.
func (lt *lockTable) release(txn *Txn) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	for _, e := range txn.held {
		i := e.index(txn)
		key := e.holders[i].key
		e.holders = slices.Delete(e.holders, i, i+1)
		if e.wake != nil {
			close(e.wake)
			e.wake = nil
		}
		switch {
		case len(e.holders) == 0:
			lt.locks.Delete(key)
			if len(lt.free) < maxFreeEntries {
				*e = lockEntry{}
				lt.free = append(lt.free, e)
			}
		case i == 0:
			// The tree holds key, which is txn's only until it ends.
			lt.locks.Delete(key)
			lt.locks.Set(e.holders[0].key, e)
		}
	}
}
