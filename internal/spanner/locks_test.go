package spanner

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestLockTableStress: goroutines take overlapping shared and exclusive
// lock sets through LockRead and Commit, upgrade shared locks, re-lock
// keys they hold, and one transaction holds over ten thousand keys.
// Mutual exclusion is checked twice: each transaction registers what it
// holds in a shadow table while it holds it, and a walker checks every
// entry of the lock table under its mutex. A transaction scribbles over
// its read keys once it ends, so a key the table kept past its owner's
// end shows up as a torn entry or an out-of-order tree. The table is
// empty at the end.
func TestLockTableStress(t *testing.T) {
	db := testDB(t)
	ctx := context.Background()
	const hot = 24
	hotKey := func(i int) []byte { return []byte(fmt.Sprintf("k%02d", i)) }
	var shadow [hot]atomic.Int32 // -1 exclusive, n > 0 shared holders

	var failed atomic.Bool
	fail := func(format string, args ...any) {
		failed.Store(true)
		t.Errorf(format, args...)
	}
	lt := db.locks
	walk := func() {
		lt.mu.Lock()
		defer lt.mu.Unlock()
		var prev []byte
		lt.locks.Ascend(nil, nil, func(k []byte, p **lockEntry) bool {
			e := *p
			switch {
			case prev != nil && bytes.Compare(prev, k) >= 0:
				fail("lock table out of order: %q after %q", k, prev)
			case len(e.holders) == 0:
				fail("entry %q has no holder", k)
			case e.mode == lockExclusive && len(e.holders) != 1:
				fail("entry %q is exclusive with %d holders", k, len(e.holders))
			case !bytes.Equal(k, e.holders[0].key) || &k[0] != &e.holders[0].key[0]:
				fail("entry %q is not indexed under its first holder's key %q", k, e.holders[0].key)
			case k[0] != 'k' && k[0] != 'b':
				fail("entry key %q was scribbled over by a finished transaction", k)
			}
			for i, h := range e.holders {
				if !bytes.Equal(h.key, k) || e.index(h.txn) != i {
					fail("entry %q: holder %d holds %q", k, i, h.key)
				}
			}
			prev = k
			return !failed.Load()
		})
	}
	stop := make(chan struct{})
	walked := make(chan struct{})
	go func() {
		defer close(walked)
		for {
			select {
			case <-stop:
				return
			default:
				walk()
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()

	var upgrades, bigCommits atomic.Int32
	aborted := func(err error) bool {
		return errors.Is(err, ErrAborted) || errors.Is(err, context.DeadlineExceeded)
	}
	worker := func(seed int64, rounds int) {
		r := rand.New(rand.NewSource(seed))
		for round := 0; round < rounds && !failed.Load(); round++ {
			txn := db.Begin()
			modes := map[int]lockMode{}
			var rows []LockedRow
			for n := 1 + r.Intn(6); len(rows) < n; {
				i, exclusive := r.Intn(hot), r.Intn(3) == 0
				rows = append(rows, LockedRow{Key: hotKey(i), Exclusive: exclusive})
				if exclusive {
					modes[i] = lockExclusive
				} else if _, ok := modes[i]; !ok {
					modes[i] = lockShared
				}
			}
			if err := txn.LockRead(ctx, rows); err != nil {
				if !aborted(err) {
					fail("LockRead: %v", err)
				}
				txn.Abort()
				continue
			}
			for i, m := range modes {
				if m == lockExclusive && !shadow[i].CompareAndSwap(0, -1) {
					fail("%s locked exclusively while the shadow says %d", hotKey(i), shadow[i].Load())
				}
				if m == lockShared && shadow[i].Add(1) <= 0 {
					fail("%s locked shared while held exclusively", hotKey(i))
				}
			}
			// Re-lock what is held (a no-op), and sometimes upgrade.
			for i, m := range modes {
				if _, err := txn.TryGet(ctx, hotKey(i)); err != nil {
					fail("re-locking held %s: %v", hotKey(i), err)
				}
				if m == lockShared && r.Intn(4) == 0 {
					short, cancel := context.WithTimeout(ctx, 5*time.Millisecond)
					_, _, err := txn.Get(short, hotKey(i), true)
					cancel()
					if err == nil {
						if shadow[i].Add(-1); !shadow[i].CompareAndSwap(0, -1) {
							fail("%s upgraded while the shadow says %d", hotKey(i), shadow[i].Load())
						}
						modes[i] = lockExclusive
						upgrades.Add(1)
					} else if !aborted(err) {
						fail("upgrading %s: %v", hotKey(i), err)
					}
				}
			}
			for i, m := range modes {
				if m == lockExclusive {
					txn.Put(hotKey(i), []byte("v"))
					shadow[i].Store(0)
				} else {
					shadow[i].Add(-1)
				}
			}
			if r.Intn(3) == 0 {
				txn.Abort()
			} else if _, err := txn.Commit(ctx, 0, 0); err != nil {
				fail("Commit of a held write set: %v", err)
			}
			// The transaction is over: its read keys are the caller's again.
			for _, row := range rows {
				for j := range row.Key {
					row.Key[j] = 0xff
				}
			}
		}
	}
	// Commits whose whole lock set is taken by Commit itself.
	writer := func(seed int64, rounds int) {
		r := rand.New(rand.NewSource(seed))
		for round := 0; round < rounds && !failed.Load(); round++ {
			txn := db.Begin()
			for n := 1 + r.Intn(4); n > 0; n-- {
				txn.Put(hotKey(r.Intn(hot)), []byte("w"))
			}
			if _, err := txn.Commit(ctx, 0, 0); err != nil && !aborted(err) {
				fail("blind Commit: %v", err)
			}
		}
	}
	// One transaction over ten thousand keys: a shared set upgraded to
	// exclusive key by key by its Commit, plus hot keys.
	big := func() {
		txn := db.Begin()
		rows := make([]LockedRow, 0, 10_000+hot)
		for i := 0; i < 10_000; i++ {
			rows = append(rows, LockedRow{Key: []byte(fmt.Sprintf("b%05d", i))})
		}
		for i := 0; i < hot; i += 3 {
			rows = append(rows, LockedRow{Key: hotKey(i)})
		}
		if err := txn.LockRead(ctx, rows); err != nil {
			if !aborted(err) {
				fail("big LockRead: %v", err)
			}
			txn.Abort()
			return
		}
		if got := len(txn.held); got != len(rows) {
			fail("big transaction holds %d entries, want %d", got, len(rows))
		}
		for i := 0; i < 10_000; i++ {
			txn.Put([]byte(fmt.Sprintf("b%05d", i)), []byte("big"))
		}
		if _, err := txn.Commit(ctx, 0, 0); err == nil {
			bigCommits.Add(1)
		} else if !aborted(err) {
			fail("big Commit: %v", err)
		}
		for _, row := range rows {
			row.Key[0] = 0xff
		}
	}

	var wg sync.WaitGroup
	rounds := 300
	if testing.Short() {
		rounds = 60
	}
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() { defer wg.Done(); worker(int64(g), rounds) }()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() { defer wg.Done(); writer(int64(100+g), rounds) }()
	}
	wg.Add(1)
	go func() { defer wg.Done(); big() }()
	wg.Wait()
	close(stop)
	<-walked
	walk()
	t.Logf("%d upgrades; the big transaction committed: %v", upgrades.Load(), bigCommits.Load() == 1)

	lt.mu.Lock()
	defer lt.mu.Unlock()
	if n := lt.locks.Len(); n != 0 {
		t.Fatalf("lock table holds %d entries after every transaction ended", n)
	}
	if len(lt.free) > maxFreeEntries {
		t.Fatalf("lock table keeps %d free entries, want <= %d", len(lt.free), maxFreeEntries)
	}
}
