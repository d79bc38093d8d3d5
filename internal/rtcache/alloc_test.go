package rtcache

import (
	"context"
	"strconv"
	"testing"
	"time"

	"firestore/internal/doc"
	"firestore/internal/truetime"
)

// TestAcceptAllocs holds the cache's share of a one-document write that
// no query matches: Prepare's write record, and an Accept that routes the
// mutation in a route table on its stack. The route table was the second
// allocation until it was.
func TestAcceptAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts mean nothing under -race")
	}
	clock := truetime.NewSystem(10 * time.Microsecond)
	// No heartbeat inside the measurement: its ticks allocate.
	c := New(Config{Clock: clock, Ranges: 4, HeartbeatEvery: time.Hour})
	t.Cleanup(c.Close)
	ctx := context.Background()
	d := ratingDoc("r1", 5)
	names, muts := []doc.Name{d.Name}, []Mutation{{Name: d.Name, New: d}}
	ids := make([]string, 202)
	for i := range ids {
		ids[i] = "db1/" + strconv.Itoa(i)
	}
	i := 0
	write := func() {
		min, err := c.Prepare(ids[i], "db1", names, truetime.Max)
		if err != nil {
			t.Fatal(err)
		}
		c.Accept(ctx, ids[i], OutcomeSuccess, max(min, clock.Now().Latest), muts)
		i++
	}
	write()
	got := testing.AllocsPerRun(200, write)
	t.Logf("Prepare plus Accept: %.1f allocations", got)
	if got > 1 {
		t.Errorf("Prepare plus Accept of a one-document write allocates %.1f times, want <= 1", got)
	}
}

// TestRebalanceAllocs: a Rebalance pass that splits nothing allocates
// nothing. With Config.AutoSplitSubs one runs on every heartbeat tick,
// under Cache.mu.
func TestRebalanceAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts mean nothing under -race")
	}
	c := New(Config{Ranges: 4, HeartbeatEvery: time.Hour})
	t.Cleanup(c.Close)
	for k := range 8 {
		c.Subscribe(nopSubscriber{}, "db1", collQuery(k), 0, 0)
	}
	got := testing.AllocsPerRun(100, func() {
		if c.Rebalance(1000) {
			t.Fatal("a range with fewer than 1000 subscriptions split")
		}
	})
	if got != 0 {
		t.Errorf("a Rebalance pass that splits nothing allocates %.1f times, want 0", got)
	}
}
