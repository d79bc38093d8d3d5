package frontend

import (
	"context"
	"fmt"
	"testing"
	"time"

	"firestore/internal/backend"
	"firestore/internal/catalog"
	"firestore/internal/doc"
	"firestore/internal/fault"
	"firestore/internal/index"
	"firestore/internal/obs"
	"firestore/internal/query"
	"firestore/internal/rtcache"
	"firestore/internal/spanner"
	"firestore/internal/truetime"
)

type env struct {
	f     *Frontend
	b     *backend.Backend
	cache *rtcache.Cache
	obs   *obs.Registry
	dbID  string
}

// lateUpdates is how many updates reached a query at or below the
// version it had already emitted — zero while rtcache delivery is ordered.
func (e *env) lateUpdates() int64 {
	return e.obs.Counter("frontend.late_updates", obs.DB(e.dbID)).Value()
}

var priv = backend.Principal{Privileged: true}

// arm injects a fault for the rest of the test. The fault registry is
// process-wide: tests that arm it must not run in parallel.
func arm(t *testing.T, spec fault.Spec) {
	t.Helper()
	if err := fault.Enable(spec); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fault.Disable(spec.Site) })
}

func newEnv(t *testing.T) *env {
	return newEnvWithMargin(t, 100*time.Millisecond)
}

func newEnvWithMargin(t *testing.T, margin time.Duration) *env {
	return newEnvWithHeartbeat(t, margin, time.Millisecond)
}

func newEnvWithHeartbeat(t *testing.T, margin, heartbeat time.Duration) *env {
	t.Helper()
	clock := truetime.NewSystem(10 * time.Microsecond)
	sp := spanner.New(spanner.Config{Clock: clock, LockTimeout: 300 * time.Millisecond})
	cat := catalog.New([]*spanner.DB{sp})
	cache := rtcache.New(rtcache.Config{Clock: clock, Ranges: 4, HeartbeatEvery: heartbeat, AcceptMargin: margin})
	t.Cleanup(cache.Close)
	b := backend.New(backend.Config{Catalog: cat, Cache: cache})
	if _, err := cat.Create("app"); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	return &env{f: New(b, cache, reg), b: b, cache: cache, obs: reg, dbID: "app"}
}

func (e *env) set(t *testing.T, name string, fields map[string]doc.Value) truetime.Timestamp {
	t.Helper()
	ts, err := e.b.Commit(context.Background(), e.dbID, priv, []backend.WriteOp{
		{Kind: backend.OpSet, Name: doc.MustName(name), Fields: fields},
	})
	if err != nil {
		t.Fatalf("set %s: %v", name, err)
	}
	return ts
}

func (e *env) delete(t *testing.T, name string) {
	t.Helper()
	if _, err := e.b.Commit(context.Background(), e.dbID, priv, []backend.WriteOp{
		{Kind: backend.OpDelete, Name: doc.MustName(name)},
	}); err != nil {
		t.Fatal(err)
	}
}

func rating(v int64) map[string]doc.Value {
	return map[string]doc.Value{"rating": doc.Int(v)}
}

// nextEvent waits for the next snapshot for targetID, failing on timeout.
func nextEvent(t *testing.T, c *Conn, targetID int64) SnapshotEvent {
	t.Helper()
	deadline := time.After(3 * time.Second)
	for {
		select {
		case ev, ok := <-c.Events():
			if !ok {
				t.Fatal("connection closed while waiting for event")
			}
			if ev.TargetID == targetID {
				return ev
			}
		case <-deadline:
			t.Fatal("timed out waiting for snapshot event")
		}
	}
}

func TestInitialSnapshotThenIncrements(t *testing.T) {
	e := newEnv(t)
	e.set(t, "/ratings/a", rating(5))
	e.set(t, "/ratings/b", rating(3))

	conn := e.f.NewConn(e.dbID, priv)
	defer conn.Close()
	q := &query.Query{Collection: doc.MustCollection("/ratings")}
	target, err := conn.Listen(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	init := nextEvent(t, conn, target)
	if !init.Initial || len(init.Added) != 2 {
		t.Fatalf("initial snapshot = %+v", init)
	}

	// An insert produces an Added delta.
	ts := e.set(t, "/ratings/c", rating(4))
	ev := nextEvent(t, conn, target)
	if len(ev.Added) != 1 || ev.Added[0].Name.ID() != "c" {
		t.Fatalf("insert delta = %+v", ev)
	}
	if ev.TS < ts {
		t.Fatalf("snapshot TS %d below commit %d", ev.TS, ts)
	}
	// Snapshots carry increasing timestamps.
	if ev.TS <= init.TS {
		t.Fatal("snapshot timestamps not increasing")
	}

	// An update produces Modified.
	e.set(t, "/ratings/c", rating(1))
	ev = nextEvent(t, conn, target)
	if len(ev.Modified) != 1 || ev.Modified[0].Fields["rating"].IntVal() != 1 {
		t.Fatalf("update delta = %+v", ev)
	}

	// A delete produces Removed.
	e.delete(t, "/ratings/c")
	ev = nextEvent(t, conn, target)
	if len(ev.Removed) != 1 || ev.Removed[0].ID() != "c" {
		t.Fatalf("delete delta = %+v", ev)
	}
}

func TestPredicateTransitions(t *testing.T) {
	e := newEnv(t)
	conn := e.f.NewConn(e.dbID, priv)
	defer conn.Close()
	q := &query.Query{
		Collection: doc.MustCollection("/ratings"),
		Predicates: []query.Predicate{{Path: "rating", Op: query.Ge, Value: doc.Int(4)}},
	}
	target, err := conn.Listen(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	nextEvent(t, conn, target) // empty initial

	// Doc enters the result set.
	e.set(t, "/ratings/x", rating(5))
	ev := nextEvent(t, conn, target)
	if len(ev.Added) != 1 {
		t.Fatalf("enter delta = %+v", ev)
	}
	// Doc falls out when its rating drops.
	e.set(t, "/ratings/x", rating(1))
	ev = nextEvent(t, conn, target)
	if len(ev.Removed) != 1 {
		t.Fatalf("leave delta = %+v", ev)
	}
	// A non-matching write produces no event; verify via a subsequent
	// matching write arriving as the NEXT event.
	e.set(t, "/ratings/y", rating(2))
	e.set(t, "/ratings/z", rating(9))
	ev = nextEvent(t, conn, target)
	if len(ev.Added) != 1 || ev.Added[0].Name.ID() != "z" {
		t.Fatalf("expected only z, got %+v", ev)
	}
}

func TestSnapshotAppliesQueryProjectionOrderCompare(t *testing.T) {
	e := newEnv(t)
	for i := 0; i < 5; i++ {
		e.set(t, fmt.Sprintf("/ratings/r%d", i), rating(int64(i)))
	}
	conn := e.f.NewConn(e.dbID, priv)
	defer conn.Close()
	q := &query.Query{
		Collection: doc.MustCollection("/ratings"),
		Orders:     []query.Order{{Path: "rating", Dir: index.Descending}},
	}
	target, err := conn.Listen(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	init := nextEvent(t, conn, target)
	if len(init.Added) != 5 {
		t.Fatalf("initial = %d docs", len(init.Added))
	}
	for i := 1; i < len(init.Added); i++ {
		if init.Added[i-1].Fields["rating"].IntVal() < init.Added[i].Fields["rating"].IntVal() {
			t.Fatal("initial snapshot not in query order")
		}
	}
}

func TestLimitQueryEviction(t *testing.T) {
	e := newEnv(t)
	e.set(t, "/ratings/a", rating(10))
	e.set(t, "/ratings/b", rating(8))
	e.set(t, "/ratings/c", rating(6))
	conn := e.f.NewConn(e.dbID, priv)
	defer conn.Close()
	q := &query.Query{
		Collection: doc.MustCollection("/ratings"),
		Orders:     []query.Order{{Path: "rating", Dir: index.Descending}},
		Limit:      2,
	}
	target, err := conn.Listen(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	init := nextEvent(t, conn, target)
	if len(init.Added) != 2 || init.Added[0].Name.ID() != "a" {
		t.Fatalf("initial top-2 = %+v", init)
	}
	// A new top-ranked doc pushes the last one out.
	e.set(t, "/ratings/top", rating(99))
	ev := nextEvent(t, conn, target)
	if len(ev.Added) != 1 || ev.Added[0].Name.ID() != "top" {
		t.Fatalf("eviction delta added = %+v", ev)
	}
	if len(ev.Removed) != 1 || ev.Removed[0].ID() != "b" {
		t.Fatalf("eviction delta removed = %+v", ev)
	}
	// Removing a member of a full limit query forces a requery that
	// pulls in the replacement.
	e.delete(t, "/ratings/top")
	ev = nextEvent(t, conn, target)
	found := false
	for _, d := range ev.Added {
		if d.Name.ID() == "b" {
			found = true
		}
	}
	if !found {
		t.Fatalf("replacement after eviction not delivered: %+v", ev)
	}
}

func TestMultiQueryConnectionConsistency(t *testing.T) {
	// Two queries on one connection: snapshots must advance together —
	// after both have seen a write at ts, neither may be behind.
	e := newEnv(t)
	conn := e.f.NewConn(e.dbID, priv)
	defer conn.Close()
	q1 := &query.Query{Collection: doc.MustCollection("/ratings")}
	q2 := &query.Query{
		Collection: doc.MustCollection("/ratings"),
		Predicates: []query.Predicate{{Path: "rating", Op: query.Ge, Value: doc.Int(0)}},
	}
	t1, err := conn.Listen(context.Background(), q1)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := conn.Listen(context.Background(), q2)
	if err != nil {
		t.Fatal(err)
	}
	nextEvent(t, conn, t1)
	nextEvent(t, conn, t2)

	e.set(t, "/ratings/x", rating(5))
	// The two targets' events arrive in either order on the shared
	// stream; gather both.
	got := map[int64]SnapshotEvent{}
	deadline := time.After(3 * time.Second)
	for len(got) < 2 {
		select {
		case ev, ok := <-conn.Events():
			if !ok {
				t.Fatal("connection closed")
			}
			got[ev.TargetID] = ev
		case <-deadline:
			t.Fatalf("timed out; received %d of 2 events", len(got))
		}
	}
	ev1, ev2 := got[t1], got[t2]
	if len(ev1.Added) != 1 || len(ev2.Added) != 1 {
		t.Fatalf("both queries should see the insert: %+v / %+v", ev1, ev2)
	}
	if ev1.TS != ev2.TS {
		t.Fatalf("connection-inconsistent snapshot timestamps: %d vs %d", ev1.TS, ev2.TS)
	}
}

func TestResetRecoversTransparently(t *testing.T) {
	// Drop every Accept: ranges reset, and the frontend must requery and
	// still deliver correct result sets.
	e := newEnv(t)
	arm(t, fault.Spec{Site: fault.BackendAccept, Mode: fault.ModeDrop})
	conn := e.f.NewConn(e.dbID, priv)
	defer conn.Close()
	q := &query.Query{Collection: doc.MustCollection("/ratings")}
	target, err := conn.Listen(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	nextEvent(t, conn, target)
	e.set(t, "/ratings/a", rating(5))
	// The update arrives via requery after the Accept timeout.
	ev := nextEvent(t, conn, target)
	if len(ev.Added) != 1 || ev.Added[0].Name.ID() != "a" {
		t.Fatalf("post-reset delta = %+v", ev)
	}
}

func TestStopListening(t *testing.T) {
	e := newEnv(t)
	conn := e.f.NewConn(e.dbID, priv)
	defer conn.Close()
	q := &query.Query{Collection: doc.MustCollection("/ratings")}
	target, err := conn.Listen(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	nextEvent(t, conn, target)
	conn.StopListening(target)
	e.set(t, "/ratings/a", rating(1))
	select {
	case ev, ok := <-conn.Events():
		if ok && ev.TargetID == target {
			t.Fatalf("event after StopListening: %+v", ev)
		}
	case <-time.After(100 * time.Millisecond):
	}
}

func TestClosedConnRejectsListen(t *testing.T) {
	e := newEnv(t)
	conn := e.f.NewConn(e.dbID, priv)
	conn.Close()
	if _, err := conn.Listen(context.Background(), &query.Query{Collection: doc.MustCollection("/c")}); err == nil {
		t.Fatal("Listen on closed conn succeeded")
	}
	// Double close is safe.
	conn.Close()
}

func TestManyListenersBroadcast(t *testing.T) {
	// The Fig. 9 scenario in miniature: one document, many listeners.
	e := newEnv(t)
	e.set(t, "/scores/game1", map[string]doc.Value{"home": doc.Int(0)})
	const listeners = 32
	conns := make([]*Conn, listeners)
	targets := make([]int64, listeners)
	q := &query.Query{Collection: doc.MustCollection("/scores")}
	for i := range conns {
		conns[i] = e.f.NewConn(e.dbID, priv)
		defer conns[i].Close()
		tid, err := conns[i].Listen(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		targets[i] = tid
		nextEvent(t, conns[i], tid)
	}
	e.set(t, "/scores/game1", map[string]doc.Value{"home": doc.Int(1)})
	for i := range conns {
		ev := nextEvent(t, conns[i], targets[i])
		if len(ev.Modified) != 1 || ev.Modified[0].Fields["home"].IntVal() != 1 {
			t.Fatalf("listener %d delta = %+v", i, ev)
		}
	}
}

// TestIdleHeartbeatIsFlat: a heartbeat tick over a connection with Q idle
// listeners is Q OnWatermark calls; together they must allocate nothing
// and scan the connection's queries once — on the tick's last watermark,
// when the connection-consistent timestamp can finally move.
func TestIdleHeartbeatIsFlat(t *testing.T) {
	e := newEnvWithHeartbeat(t, time.Hour, time.Hour)
	conn := e.f.NewConn(e.dbID, priv)
	defer conn.Close()
	const listeners = 32
	for i := 0; i < listeners; i++ {
		q := &query.Query{Collection: doc.MustCollection(fmt.Sprintf("/rooms/r%d/messages", i))}
		if _, err := conn.Listen(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	type sub struct {
		rq      *rtQuery
		rangeID int
		subID   int64
	}
	var subs []sub
	var ts truetime.Timestamp
	conn.mu.Lock()
	for id, rq := range conn.queries {
		subs = append(subs, sub{rq, rq.rangeIDs[0], id})
		ts = max(ts, rq.maxCommitVersion)
	}
	conn.mu.Unlock()
	version := func(s sub) truetime.Timestamp {
		conn.mu.Lock()
		defer conn.mu.Unlock()
		return s.rq.maxCommitVersion
	}

	tick := func() {
		ts += 1000
		for _, s := range subs {
			conn.OnWatermark(s.rangeID, s.subID, ts)
		}
	}
	tick() // the first scan counts the holders
	if allocs := testing.AllocsPerRun(100, tick); allocs != 0 {
		t.Fatalf("idle heartbeat tick over %d listeners allocates %.0f times, want 0", listeners, allocs)
	}
	// Every watermark but the tick's last is O(1): nothing advances until
	// the last query sitting on the old timestamp has moved.
	before := ts
	ts += 1000
	for _, s := range subs[:listeners-1] {
		conn.OnWatermark(s.rangeID, s.subID, ts)
	}
	for _, s := range subs {
		if got := version(s); got != before {
			t.Fatalf("query advanced to %d before the tick completed, want %d", got, before)
		}
	}
	last := subs[listeners-1]
	conn.OnWatermark(last.rangeID, last.subID, ts)
	for _, s := range subs {
		if got := version(s); got != ts {
			t.Fatalf("query at %d after the tick, want %d", got, ts)
		}
	}
	for len(conn.Events()) > 0 {
		if ev := <-conn.Events(); !ev.Initial {
			t.Fatalf("idle tick emitted a delta: %+v", ev)
		}
	}
}
