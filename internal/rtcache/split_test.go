package rtcache

import (
	"context"
	"fmt"
	"runtime"
	"slices"
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
					runtime.Gosched() // on one CPU, a goroutine that never blocks would run all its subscriptions at once
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
				} else {
					runtime.Gosched() // let the subscribers in: a split needs subscriptions
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

// TestPrepareRacesSplit: writes prepared while splits move their
// collections either register with the range that owns their names now
// or are covered by the horizon a split handed it. When the churn stops,
// every write still pending sits in the pending list of each owner of
// its names, or that owner's horizon is at or past the write's maxTS, so
// a subscription there either sees its commit or resets.
func TestPrepareRacesSplit(t *testing.T) {
	// A split harms only a Prepare caught between choosing its owners
	// and registering with them, a window of nanoseconds: many short
	// rounds, each a fresh cache with a burst of splits.
	const rounds, colls, writers, each = 400, 64, 4, 32
	clock := truetime.NewSystem(10 * time.Microsecond)
	splits := 0
	for round := range rounds {
		c := New(Config{Clock: clock, Ranges: 1, HeartbeatEvery: time.Hour})
		names := make([][][]doc.Name, writers)
		var done atomic.Bool
		var wg sync.WaitGroup
		for g := range writers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range each {
					k := (g*each + i) % colls
					c.Subscribe(nopSubscriber{}, "db1", collQuery(k), 0, 0)
					// Every other write spans two collections, often two ranges.
					ns := []doc.Name{doc.MustName(fmt.Sprintf("/c%d/x", k))}
					if i%2 == 1 {
						ns = append(ns, doc.MustName(fmt.Sprintf("/c%d/y", (k+colls/2)%colls)))
					}
					// Never accepted, never expired.
					maxTS := clock.Now().Latest.Add(time.Second)
					if _, err := c.Prepare(fmt.Sprintf("r%d-w%d-%d", round, g, i), "db1", ns, maxTS); err != nil {
						t.Error(err)
					}
					names[g] = append(names[g], ns)
				}
			}()
		}
		split := make(chan struct{})
		go func() {
			defer close(split)
			for !done.Load() {
				if c.Rebalance(1) {
					splits++
				} else {
					runtime.Gosched() // let the writers subscribe: a split needs subscriptions
				}
			}
		}()
		wg.Wait()
		done.Store(true)
		<-split
		c.Close()
		stray, example := 0, ""
		c.mu.Lock()
		for g := range writers {
			for i, ns := range names[g] {
				w := c.writes[fmt.Sprintf("r%d-w%d-%d", round, g, i)]
				for _, n := range ns {
					r := c.ownerLocked("db1", n.First())
					r.mu.Lock()
					if !slices.ContainsFunc(r.pending, func(p prepare) bool { return p.w == w }) && r.trimmedBefore < w.maxTS {
						stray++
						example = fmt.Sprintf("%s on range %d, horizon %d < maxTS %d", n, r.id, r.trimmedBefore, w.maxTS)
					}
					r.mu.Unlock()
				}
			}
		}
		c.mu.Unlock()
		if stray > 0 {
			t.Errorf("round %d: %d prepared names are neither pending on their owner nor under its horizon, e.g. %s", round, stray, example)
		}
	}
	if splits == 0 {
		t.Fatal("no split ran beside the prepares")
	}
}

// TestAcceptAfterSplitResetsNobody: a split resets the range a write
// prepared on and hands its horizon, past the write's maxTS, to the new
// range. A listener that subscribes at that horizon, on either range, has
// the write in its snapshot, so the write's Accept, whatever its outcome,
// costs it nothing.
func TestAcceptAfterSplitResetsNobody(t *testing.T) {
	// A split hands the first half of the hot range's slots, in slot
	// order, to the new range.
	coll := map[bool]int{} // moved -> a collection the split moves, or keeps
	for i := 0; len(coll) < 2; i++ {
		coll[slotOf("db1", fmt.Sprintf("c%d", i)) < slots/2] = i
	}
	for _, tc := range []struct {
		name    string
		outcome Outcome
		moved   bool
	}{
		{"success/stayed", OutcomeSuccess, false},
		{"success/moved", OutcomeSuccess, true},
		{"unknown/stayed", OutcomeUnknown, false},
		{"unknown/moved", OutcomeUnknown, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := truetime.NewSystem(10 * time.Microsecond)
			c := New(Config{Clock: clock, Ranges: 1, HeartbeatEvery: time.Hour})
			t.Cleanup(c.Close)
			c.Subscribe(newRecorder(), "db1", &query.Query{Collection: doc.MustCollection("/anchor")}, 0, 0)
			q := collQuery(coll[tc.moved])
			d := doc.New(doc.MustName(q.Collection.String()+"/x"), map[string]doc.Value{"n": doc.Int(1)})
			hot := c.rangeFor("db1", d.Name)
			minTS, err := c.Prepare("w", "db1", []doc.Name{d.Name}, clock.Now().Latest.Add(time.Second))
			if err != nil {
				t.Fatal(err)
			}
			if !c.Rebalance(1) {
				t.Fatal("rebalance found nothing to split")
			}
			if moved := c.rangeFor("db1", d.Name) != hot; moved != tc.moved {
				t.Fatalf("the split moved %s: %v, want %v", q.Collection, moved, tc.moved)
			}
			rec := newRecorder()
			c.Subscribe(rec, "db1", q, c.Horizon("db1", q), 0)
			c.Accept(context.Background(), "w", tc.outcome, max(minTS, clock.Now().Latest), []Mutation{{Name: d.Name, New: d}})
			if n := rec.resetCount(); n != 0 {
				t.Fatalf("the Accept reset a listener subscribed at the split's horizon %d time(s)", n)
			}
		})
	}
}
