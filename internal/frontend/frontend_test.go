package frontend

import (
	"context"
	"fmt"
	"sync"
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
	clock *truetime.System
	obs   *obs.Registry
	dbID  string
}

// pastMaxCommitTS moves TrueTime past the max commit timestamp of every
// write prepared so far, so the next heartbeat expires a prepare whose
// Accept never came.
func (e *env) pastMaxCommitTS() {
	e.clock.Forward(e.clock.Now().Latest.Add(2 * time.Second))
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
	return newEnvWithHeartbeat(t, time.Millisecond)
}

func newEnvWithHeartbeat(t *testing.T, heartbeat time.Duration) *env {
	t.Helper()
	clock := truetime.NewSystem(10 * time.Microsecond)
	sp := spanner.New(spanner.Config{Clock: clock})
	cat := catalog.New([]*spanner.DB{sp})
	cache := rtcache.New(rtcache.Config{Clock: clock, Ranges: 4, HeartbeatEvery: heartbeat})
	t.Cleanup(cache.Close)
	b := backend.New(backend.Config{Catalog: cat, Cache: cache})
	if _, err := cat.Create("app"); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	return &env{f: New(b, cache, reg), b: b, cache: cache, clock: clock, obs: reg, dbID: "app"}
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

// TestInitialSnapshotHoldsEveryPage listens to a query whose result is
// one and a half pages: the Initial snapshot holds all of it, and a write
// to a document of the second page arrives as Modified.
func TestInitialSnapshotHoldsEveryPage(t *testing.T) {
	e := newEnv(t)
	const n = query.MaxResultSize * 3 / 2
	for lo := 0; lo < n; lo += 250 {
		var ops []backend.WriteOp
		for i := lo; i < lo+250; i++ {
			ops = append(ops, backend.WriteOp{Kind: backend.OpSet, Name: doc.MustName(fmt.Sprintf("/items/%04d", i)), Fields: rating(1)})
		}
		if _, err := e.b.Commit(context.Background(), e.dbID, priv, ops); err != nil {
			t.Fatal(err)
		}
	}
	conn := e.f.NewConn(e.dbID, priv)
	defer conn.Close()
	target, err := conn.Listen(context.Background(), &query.Query{Collection: doc.MustCollection("/items")})
	if err != nil {
		t.Fatal(err)
	}
	if init := nextEvent(t, conn, target); !init.Initial || len(init.Added) != n {
		t.Fatalf("initial snapshot: Initial=%v with %d documents, want %d", init.Initial, len(init.Added), n)
	}
	e.set(t, "/items/1400", rating(2))
	if ev := nextEvent(t, conn, target); len(ev.Modified) != 1 || ev.Modified[0].Name.ID() != "1400" || len(ev.Added) != 0 {
		t.Fatalf("write to /items/1400 = %+v, want it Modified", ev)
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

// TestLimitQueryFilledAfterBuild: a limit query built empty fills by
// deltas. The document those deltas evict was never delivered, so no
// event removes it, and once a member leaves, it comes back.
func TestLimitQueryFilledAfterBuild(t *testing.T) {
	e := newEnv(t)
	conn := e.f.NewConn(e.dbID, priv)
	defer conn.Close()
	top2, err := conn.Listen(context.Background(), &query.Query{
		Collection: doc.MustCollection("/ratings"),
		Orders:     []query.Order{{Path: "rating", Dir: index.Descending}},
		Limit:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every document, on the same connection: its snapshot reaching a
	// timestamp means the limit query's has too.
	all, err := conn.Listen(context.Background(), &query.Query{Collection: doc.MustCollection("/ratings")})
	if err != nil {
		t.Fatal(err)
	}
	views := map[int64]map[string]bool{top2: {}, all: {}}
	// await applies events to views until the two targets show want.
	await := func(wantTop2, wantAll string) {
		t.Helper()
		deadline := time.After(3 * time.Second)
		for fmt.Sprint(views[top2]) != wantTop2 || fmt.Sprint(views[all]) != wantAll {
			select {
			case ev := <-conn.Events():
				v := views[ev.TargetID]
				if ev.Initial {
					clear(v)
				}
				for _, n := range ev.Removed {
					if !v[n.ID()] {
						t.Fatalf("target %d: event removes %s, which it never delivered: %+v", ev.TargetID, n.ID(), ev)
					}
					delete(v, n.ID())
				}
				for _, d := range ev.Added {
					v[d.Name.ID()] = true
				}
			case <-deadline:
				t.Fatalf("top-2 view %v, all view %v; want %s and %s", views[top2], views[all], wantTop2, wantAll)
			}
		}
	}
	e.set(t, "/ratings/a", rating(5))
	e.set(t, "/ratings/b", rating(4))
	e.set(t, "/ratings/c", rating(3))
	await("map[a:true b:true]", "map[a:true b:true c:true]")
	e.delete(t, "/ratings/a")
	await("map[b:true c:true]", "map[b:true c:true]")
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
// listeners on one range is one subscriber watermark: one OnWatermark
// call that allocates nothing, advances every listener to its timestamp
// and emits nothing.
func TestIdleHeartbeatIsFlat(t *testing.T) {
	e := newEnvWithHeartbeat(t, time.Hour)
	conn := e.f.NewConn(e.dbID, priv)
	defer conn.Close()
	const listeners = 32
	for i := 0; i < listeners; i++ {
		q := &query.Query{Collection: doc.MustCollection(fmt.Sprintf("/rooms/r%d/messages", i))}
		if _, err := conn.Listen(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	var ts truetime.Timestamp
	rangeID := -1
	conn.mu.Lock()
	for _, rq := range conn.queries {
		ts = max(ts, rq.maxCommitVersion)
		if rq.rangeID < 0 || rangeID >= 0 && rq.rangeID != rangeID {
			t.Fatalf("listener on range %d beside one on %d, want all past their first watermark on one range", rq.rangeID, rangeID)
		}
		rangeID = rq.rangeID
	}
	conn.mu.Unlock()

	tick := func() {
		ts += 1000
		conn.OnWatermark(rangeID, 0, ts)
	}
	if allocs := testing.AllocsPerRun(100, tick); allocs != 0 {
		t.Fatalf("idle heartbeat tick over %d listeners allocates %.0f times, want 0", listeners, allocs)
	}
	conn.mu.Lock()
	for _, rq := range conn.queries {
		if rq.maxCommitVersion != ts {
			t.Errorf("listener at %d after the tick, want %d", rq.maxCommitVersion, ts)
		}
	}
	conn.mu.Unlock()
	for len(conn.Events()) > 0 {
		if ev := <-conn.Events(); !ev.Initial {
			t.Fatalf("idle tick emitted a delta: %+v", ev)
		}
	}
}

// parker is a Subscriber whose first OnUpdate waits for gate, holding up
// its range's deliveries.
type parker struct {
	gate, entered chan struct{}
	once          sync.Once
}

func (p *parker) OnUpdate(int, int64, rtcache.Update) {
	p.once.Do(func() {
		close(p.entered)
		<-p.gate
	})
}
func (*parker) OnWatermark(int, int64, truetime.Timestamp) {}
func (*parker) OnReset(int, int64)                         {}

// TestFirstWatermarkArmsTheTarget: a target counts its range's subscriber
// watermarks only from its own first watermark on. A subscriber
// watermark queued ahead of its registration can reach it after
// Subscribe has returned and before its replay; counted, it would move
// the target past the replayed update, which then arrives late.
func TestFirstWatermarkArmsTheTarget(t *testing.T) {
	e := newEnvWithHeartbeat(t, time.Hour)
	ctx := context.Background()
	conn := e.f.NewConn(e.dbID, priv)
	defer conn.Close()
	q := &query.Query{Collection: doc.MustCollection("/ratings")}
	first, err := conn.Listen(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	nextEvent(t, conn, first)
	// A subscriber registered after the connection's parks the range's
	// drainer on a write committed a second ahead of TrueTime, with the
	// connection's subscriber watermark at the write still in the batch.
	p := &parker{gate: make(chan struct{}), entered: make(chan struct{})}
	e.cache.Subscribe(p, e.dbID, q, 0, 0)
	d := doc.New(doc.MustName("/ratings/ahead"), rating(1))
	at := e.clock.Now().Latest.Add(time.Second)
	if _, err := e.cache.Prepare("ahead", e.dbID, []doc.Name{d.Name}, truetime.Max); err != nil {
		t.Fatal(err)
	}
	accepted := make(chan struct{})
	go func() {
		defer close(accepted)
		e.cache.Accept(ctx, "ahead", rtcache.OutcomeSuccess, at, []rtcache.Mutation{{Name: d.Name, New: d}})
	}()
	<-p.entered
	// The second target reads below the write, so it is replayed to it,
	// behind the parked batch.
	second, err := conn.Listen(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if ev := nextEvent(t, conn, second); !ev.Initial || len(ev.Added) != 0 || ev.TS >= at {
		t.Fatalf("second target's first event = %+v, want an empty Initial below %d", ev, at)
	}
	close(p.gate)
	<-accepted
	if ev := nextEvent(t, conn, second); ev.Initial || ev.TS != at || len(ev.Added) != 1 || ev.Added[0].Name != d.Name {
		t.Fatalf("second target's next event = %+v, want the replayed write added at %d", ev, at)
	}
	if n := e.lateUpdates(); n != 0 {
		t.Fatalf("frontend.late_updates = %d, want 0", n)
	}
}
