package rtcache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"firestore/internal/doc"
	"firestore/internal/query"
	"firestore/internal/truetime"
)

// collQuery is a query over the top-level collection /c<i>.
func collQuery(i int) *query.Query {
	return &query.Query{Collection: doc.MustCollection(fmt.Sprintf("/c%d", i))}
}

// TestSplitHandsOverHistory: a range made by a split never saw the writes
// its collections took before it, so a subscription from below them must
// reset there rather than wait, with no error, for a write it will never
// be sent.
func TestSplitHandsOverHistory(t *testing.T) {
	c := New(Config{Clock: truetime.NewSystem(10 * time.Microsecond), Ranges: 1, HeartbeatEvery: time.Hour})
	t.Cleanup(c.Close)
	c.Subscribe(newRecorder(), "db1", &query.Query{Collection: doc.MustCollection("/anchor")}, 0, 0)
	const colls = 64
	var wrote [colls]truetime.Timestamp
	for i := range colls {
		d := doc.New(doc.MustName(fmt.Sprintf("/c%d/x", i)), map[string]doc.Value{"n": doc.Int(1)})
		wrote[i] = put(t, c, fmt.Sprintf("w%d", i), d)
	}
	old := c.rangeFor("db1", doc.MustName("/anchor/x"))
	if !c.Rebalance(1) {
		t.Fatal("rebalance found nothing to split")
	}
	moved := -1
	for i := range colls {
		if c.rangeFor("db1", doc.MustName(fmt.Sprintf("/c%d/x", i))) != old {
			moved = i
			break
		}
	}
	if moved < 0 {
		t.Fatal("the split moved none of the collections")
	}
	rec := newRecorder()
	c.Subscribe(rec, "db1", collQuery(moved), wrote[moved]-1, 0)
	waitFor(t, "a reset or the write", func() bool { return rec.resetCount()+rec.updateCount() > 0 })
	if rec.resetCount() != 1 || rec.updateCount() != 0 {
		t.Fatalf("subscription below the split's horizon: %d resets, %d updates; want 1 reset", rec.resetCount(), rec.updateCount())
	}
}

// TestSubscribeRacesSplit: subscriptions registered while splits move
// their collections either land on the new owner or are reset. When the
// churn stops, every subscription still registered sits on the range
// that owns its collection, where the collection's writes go.
func TestSubscribeRacesSplit(t *testing.T) {
	const rounds, colls, subscribers, each = 10, 64, 4, 500
	for range rounds {
		c := New(Config{Clock: truetime.NewSystem(10 * time.Microsecond), Ranges: 1, HeartbeatEvery: time.Hour})
		var done atomic.Bool
		var wg sync.WaitGroup
		for g := range subscribers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range each {
					c.Subscribe(nopSubscriber{}, "db1", collQuery((g*each+i)%colls), 0, 0)
				}
			}()
		}
		splits := 0
		split := make(chan struct{})
		go func() {
			defer close(split)
			for !done.Load() {
				if c.Rebalance(1) {
					splits++
				}
			}
		}()
		wg.Wait()
		done.Store(true)
		<-split
		c.Close()
		if splits == 0 {
			t.Fatal("no split ran beside the subscriptions")
		}
		c.mu.Lock()
		for _, r := range c.ranges {
			r.mu.Lock()
			for _, s := range r.subs {
				if owner := c.ownerLocked(s.db, s.q.Collection.First()); owner != r {
					t.Errorf("subscription %d on %s sits on range %d; range %d owns it", s.subID, s.q.Collection, r.id, owner.id)
				}
			}
			r.mu.Unlock()
		}
		c.mu.Unlock()
	}
}
