package frontend

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"firestore/internal/doc"
	"firestore/internal/fault"
	"firestore/internal/index"
	"firestore/internal/obs"
	"firestore/internal/query"
	"firestore/internal/rtcache"
	"firestore/internal/status"
	"firestore/internal/truetime"
)

// subscription returns the subscription ID of target's query and a range
// ID to deliver its events as; the connection reads only the former.
func subscription(c *Conn, target int64) (int64, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.targets[target].subID, 0
}

// TestEveryRebuildDeliversOneInitial: whatever makes the connection give
// up on a target's delta stream, the client's next event for it is one
// Initial snapshot of the whole result, and deltas resume after it.
func TestEveryRebuildDeliversOneInitial(t *testing.T) {
	all := &query.Query{Collection: doc.MustCollection("/ratings")}
	top2 := &query.Query{
		Collection: doc.MustCollection("/ratings"),
		Orders:     []query.Order{{Path: "rating", Dir: index.Descending}},
		Limit:      2,
	}
	cases := []struct {
		name    string
		q       *query.Query
		arm     bool // drop the next delivery before Listen
		trigger func(t *testing.T, e *env, c *Conn, target int64)
	}{
		{"listen's initial dropped", all, true, func(*testing.T, *env, *Conn, int64) {}},
		{"range reset", all, false, func(t *testing.T, e *env, c *Conn, target int64) {
			sub, rid := subscription(c, target)
			c.OnReset(rid, sub)
		}},
		{"delta dropped", all, false, func(t *testing.T, e *env, c *Conn, target int64) {
			arm(t, fault.Spec{Site: fault.FrontendConnDeliver, Mode: fault.ModeDrop, MaxCount: 1})
			e.set(t, "/ratings/c", rating(7))
		}},
		{"limit member left", top2, false, func(t *testing.T, e *env, c *Conn, target int64) {
			e.delete(t, "/ratings/a")
		}},
		{"late update", all, false, func(t *testing.T, e *env, c *Conn, target int64) {
			sub, rid := subscription(c, target)
			c.mu.Lock()
			at := c.targets[target].maxCommitVersion
			c.mu.Unlock()
			c.OnUpdate(rid, sub, rtcache.Update{TS: at, Name: doc.MustName("/ratings/a"), Matches: false})
			c.OnWatermark(rid, sub, at+1)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t)
			for i, id := range []string{"a", "b", "c"} {
				e.set(t, "/ratings/"+id, rating(int64(9-i)))
			}
			conn := e.f.NewConn(e.dbID, priv)
			defer conn.Close()
			requeries := e.obs.Counter("frontend.requeries", obs.DB(e.dbID))
			before := requeries.Value()
			if tc.arm {
				arm(t, fault.Spec{Site: fault.FrontendConnDeliver, Mode: fault.ModeDrop, MaxCount: 1})
			}
			target, err := conn.Listen(context.Background(), tc.q)
			if err != nil {
				t.Fatal(err)
			}
			if !tc.arm {
				if ev := nextEvent(t, conn, target); !ev.Initial {
					t.Fatalf("first event = %+v", ev)
				}
			}
			tc.trigger(t, e, conn, target)

			ev := nextEvent(t, conn, target)
			if !ev.Initial || len(ev.Modified)+len(ev.Removed) != 0 {
				t.Fatalf("event after the rebuild = %+v, want one Initial snapshot", ev)
			}
			res, _, err := e.b.RunQuery(context.Background(), e.dbID, priv, tc.q, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := names(ev.Added), names(res.Docs); got != want {
				t.Fatalf("Initial lists %s, the query returns %s", got, want)
			}
			if n := requeries.Value() - before; n != 1 {
				t.Fatalf("%d rebuilds, want 1", n)
			}

			// The rebuilt target is subscribed again: a write is a delta.
			e.set(t, "/ratings/z", rating(99))
			if ev := nextEvent(t, conn, target); ev.Initial || len(ev.Added) != 1 || ev.Added[0].Name.ID() != "z" {
				t.Fatalf("delta after the rebuild = %+v", ev)
			}
		})
	}
}

func names(ds []*doc.Document) string {
	var s string
	for _, d := range ds {
		s += d.Name.ID() + " "
	}
	return s
}

// TestFailedRebuildEndsTheTarget: a rebuild whose query fails removes the
// target and tells the client with an event carrying the error, rather
// than leaving it waiting for a snapshot that never comes.
func TestFailedRebuildEndsTheTarget(t *testing.T) {
	e := newEnv(t)
	e.set(t, "/ratings/a", rating(1))
	conn := e.f.NewConn(e.dbID, priv)
	defer conn.Close()
	target, err := conn.Listen(context.Background(), &query.Query{Collection: doc.MustCollection("/ratings")})
	if err != nil {
		t.Fatal(err)
	}
	nextEvent(t, conn, target)
	arm(t, fault.Spec{Site: fault.SpannerRead, Mode: fault.ModeError, Code: status.Internal})
	sub, rid := subscription(conn, target)
	conn.OnReset(rid, sub)
	ev := nextEvent(t, conn, target)
	if status.CodeOf(ev.Err) != status.Internal {
		t.Fatalf("event after a failed rebuild = %+v, want the query's error", ev)
	}
	if stats := e.f.ConnStats(); len(stats) != 1 || stats[0].Targets != 0 || stats[0].Queries != 0 {
		t.Fatalf("connection after a failed rebuild = %+v, want no target", stats)
	}
}

// TestEventsLeaveInStateOrder: four targets on one connection advance
// their watermarks concurrently, each flush applying what all have
// covered. The deltas must reach the client in the order they were
// applied: one that leaves the connection before an older one would have
// the client regress a document. So each target's events rise strictly,
// and the connection's never fall.
func TestEventsLeaveInStateOrder(t *testing.T) {
	e := newEnvWithHeartbeat(t, time.Hour)
	conn := e.f.NewConn(e.dbID, priv)
	defer conn.Close()
	const targets = 4
	var subs [targets]int64
	var ids [targets]int64
	var base truetime.Timestamp
	for g := range targets {
		target, err := conn.Listen(context.Background(), &query.Query{Collection: doc.MustCollection(fmt.Sprintf("/items%d", g))})
		if err != nil {
			t.Fatal(err)
		}
		nextEvent(t, conn, target)
		ids[g] = target
		subs[g], _ = subscription(conn, target)
		conn.mu.Lock()
		base = max(base, conn.targets[target].maxCommitVersion)
		conn.mu.Unlock()
	}

	const rounds = 2000
	var order []truetime.Timestamp
	perTarget := map[int64][]truetime.Timestamp{}
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		for ev := range conn.Events() {
			order = append(order, ev.TS)
			perTarget[ev.TargetID] = append(perTarget[ev.TargetID], ev.TS)
		}
	}()
	var wg sync.WaitGroup
	for g, sub := range subs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := doc.MustName(fmt.Sprintf("/items%d/d", g))
			for i := 1; i <= rounds; i++ {
				ts := base + truetime.Timestamp(targets*i+g)
				d := &doc.Document{Name: name, Fields: map[string]doc.Value{"i": doc.Int(int64(i))}, UpdateTime: ts}
				conn.OnUpdate(0, sub, rtcache.Update{TS: ts, Name: name, New: d, Matches: true})
				conn.OnWatermark(0, sub, ts)
				for len(conn.Events()) > eventBuffer/2 {
					time.Sleep(10 * time.Microsecond)
				}
			}
		}()
	}
	wg.Wait()
	conn.Close()
	<-consumed
	if n := e.obs.Counter("frontend.events_dropped", obs.DB(e.dbID)).Value(); n != 0 {
		t.Fatalf("%d events dropped: the run did not test ordering", n)
	}
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("event %d of %d at %d follows one at %d", i, len(order), order[i], order[i-1])
		}
	}
	for _, id := range ids {
		tss := perTarget[id]
		if len(tss) < 2 {
			t.Fatalf("target %d got %d deltas, want many", id, len(tss))
		}
		for i := 1; i < len(tss); i++ {
			if tss[i] <= tss[i-1] {
				t.Fatalf("target %d: event %d of %d at %d follows one at %d", id, i, len(tss), tss[i], tss[i-1])
			}
		}
	}
}

// TestUnknownOutcomeRebuildsOnce: a write whose outcome is unknown resets
// its range and raises the range's horizon to the write's max commit
// timestamp, a second ahead. The target is rebuilt once, past that
// horizon, rather than requeried below it until TrueTime gets there.
func TestUnknownOutcomeRebuildsOnce(t *testing.T) {
	const heartbeat = 50 * time.Millisecond
	const maxCommitWindow = time.Second // the backend's max commit timestamp lead
	e := newEnvWithHeartbeat(t, heartbeat)
	conn := e.f.NewConn(e.dbID, priv)
	defer conn.Close()
	target, err := conn.Listen(context.Background(), &query.Query{Collection: doc.MustCollection("/ratings")})
	if err != nil {
		t.Fatal(err)
	}
	nextEvent(t, conn, target)
	requeries := func() int64 { return e.obs.Counter("frontend.requeries", obs.DB(e.dbID)).Value() }
	before, start := requeries(), time.Now()
	if _, err := e.cache.Prepare("lost", e.dbID, []doc.Name{doc.MustName("/ratings/a")}, e.clock.Now().Latest.Add(maxCommitWindow)); err != nil {
		t.Fatal(err)
	}
	e.cache.Accept(context.Background(), "lost", rtcache.OutcomeUnknown, 0, nil)
	time.Sleep(500 * time.Millisecond)
	if n := requeries() - before; n > 2 {
		t.Fatalf("%d requeries in 500 ms after one unknown outcome, want at most 2", n)
	}
	if ev := nextEvent(t, conn, target); !ev.Initial {
		t.Fatalf("event after the reset = %+v, want an Initial snapshot", ev)
	}
	if took := time.Since(start); took > maxCommitWindow+heartbeat {
		t.Fatalf("Initial after %v, want within %v", took, maxCommitWindow+heartbeat)
	}
}
