package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"firestore/internal/backend"
	"firestore/internal/doc"
	"firestore/internal/frontend"
	"firestore/internal/query"
	"firestore/internal/triggers"
)

var priv = backend.Principal{Privileged: true}

func newRegion(t *testing.T, cfg Config) *Region {
	t.Helper()
	r := NewRegion(cfg)
	t.Cleanup(r.Close)
	return r
}

func TestRegionEndToEnd(t *testing.T) {
	r := newRegion(t, Config{Name: "test"})
	if _, err := r.CreateDatabase("app"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Write through the region.
	_, err := r.Commit(ctx, "app", priv, []backend.WriteOp{{
		Kind: backend.OpSet, Name: doc.MustName("/restaurants/one"),
		Fields: map[string]doc.Value{"city": doc.String("SF"), "avgRating": doc.Double(4.5)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Read back.
	d, _, err := r.GetDocument(ctx, "app", priv, doc.MustName("/restaurants/one"), 0)
	if err != nil || d.Fields["city"].StringVal() != "SF" {
		t.Fatalf("get = %v, %v", d, err)
	}
	// Query.
	res, _, err := r.RunQuery(ctx, "app", priv, &query.Query{
		Collection: doc.MustCollection("/restaurants"),
		Predicates: []query.Predicate{{Path: "city", Op: query.Eq, Value: doc.String("SF")}},
	}, nil, 0)
	if err != nil || len(res.Docs) != 1 {
		t.Fatalf("query = %v, %v", res, err)
	}
	// Real-time.
	conn := r.NewConn("app", priv)
	defer conn.Close()
	target, err := conn.Listen(ctx, &query.Query{Collection: doc.MustCollection("/restaurants")})
	if err != nil {
		t.Fatal(err)
	}
	ev := <-conn.Events()
	if ev.TargetID != target || len(ev.Added) != 1 {
		t.Fatalf("initial = %+v", ev)
	}
	r.Commit(ctx, "app", priv, []backend.WriteOp{{
		Kind: backend.OpSet, Name: doc.MustName("/restaurants/two"),
		Fields: map[string]doc.Value{"city": doc.String("NY")},
	}})
	select {
	case ev = <-conn.Events():
		if len(ev.Added) != 1 || ev.Added[0].Name.ID() != "two" {
			t.Fatalf("delta = %+v", ev)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("no real-time delta")
	}
}

func TestRegionRulesDeployment(t *testing.T) {
	r := newRegion(t, Config{})
	r.CreateDatabase("app")
	if err := r.SetRules("app", `match /public/{id} { allow read; }`); err != nil {
		t.Fatal(err)
	}
	if err := r.SetRules("app", `this is not rules`); err == nil {
		t.Fatal("bad rules accepted")
	}
	if err := r.SetRules("missing", `match /a/{b} { allow read; }`); err == nil {
		t.Fatal("rules for missing db accepted")
	}
}

func TestRegionTriggers(t *testing.T) {
	r := newRegion(t, Config{})
	r.CreateDatabase("app")
	svc := r.Triggers("app")
	if svc == nil {
		t.Fatal("no trigger service")
	}
	var mu sync.Mutex
	var got []triggers.Change
	svc.OnWrite("ratings", func(_ context.Context, ch triggers.Change) error {
		mu.Lock()
		got = append(got, ch)
		mu.Unlock()
		return nil
	})
	ctx := context.Background()
	r.Commit(ctx, "app", priv, []backend.WriteOp{{
		Kind: backend.OpCreate, Name: doc.MustName("/restaurants/one/ratings/1"),
		Fields: map[string]doc.Value{"rating": doc.Int(5)},
	}})
	// A write to another collection must not fire the handler.
	r.Commit(ctx, "app", priv, []backend.WriteOp{{
		Kind: backend.OpSet, Name: doc.MustName("/other/x"), Fields: nil,
	}})
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n >= 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 {
		t.Fatalf("trigger fired %d times, want 1", len(got))
	}
	if got[0].Kind() != "create" || got[0].New.Fields["rating"].IntVal() != 5 {
		t.Fatalf("change = %+v", got[0])
	}
}

func TestRegionMultiRegionSlower(t *testing.T) {
	reg := newRegion(t, Config{TimeScale: 0.5})
	multi := newRegion(t, Config{TimeScale: 0.5, MultiRegion: true})
	reg.CreateDatabase("a")
	multi.CreateDatabase("a")
	ctx := context.Background()
	measure := func(r *Region) time.Duration {
		start := time.Now()
		for i := 0; i < 5; i++ {
			if _, err := r.Commit(ctx, "a", priv, []backend.WriteOp{{
				Kind: backend.OpSet, Name: doc.MustName("/c/x"), Fields: nil,
			}}); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	tReg, tMulti := measure(reg), measure(multi)
	if tMulti <= tReg {
		t.Fatalf("multi-region writes (%v) not slower than regional (%v)", tMulti, tReg)
	}
}

func TestRegionBillingEnabled(t *testing.T) {
	r := newRegion(t, Config{Billing: true})
	r.CreateDatabase("app")
	r.Commit(context.Background(), "app", priv, []backend.WriteOp{{
		Kind: backend.OpSet, Name: doc.MustName("/c/x"), Fields: nil,
	}})
	if r.Billing.UsageFor("app").Writes != 1 {
		t.Fatal("billing not recording")
	}
}

// A write's cost holds its worker: with one worker, concurrent writes
// costing 5 ms each run one after another.
func TestRegionSchedulerWired(t *testing.T) {
	const cost, writes = 5 * time.Millisecond, 4
	r := newRegion(t, Config{SchedulerWorkers: 1, Costs: backend.Costs{
		Write: func(string, int) time.Duration { return cost },
	}})
	r.CreateDatabase("app")
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < writes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := r.Commit(context.Background(), "app", priv, []backend.WriteOp{{
				Kind: backend.OpSet, Name: doc.MustName(fmt.Sprintf("/c/x%d", i)), Fields: nil,
			}}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed < writes*cost {
		t.Fatalf("%d writes costing %v on one worker took %v, want >= %v", writes, cost, elapsed, writes*cost)
	}
	if got := r.Scheduler.AccountedCost("app"); got != writes*cost {
		t.Fatalf("AccountedCost = %v, want %v", got, writes*cost)
	}
}

// The replication model: off at TimeScale 0; a regional quorum round in
// [1, 2) ms and a multi-region one in [4, 7) ms at TimeScale 1; a second
// round for a multi-tablet commit; 40 ms per MiB and 30 µs per row.
func TestCommitDelayModel(t *testing.T) {
	if (Config{}).commitDelay() != nil {
		t.Fatal("TimeScale 0 must turn the model off")
	}
	for _, tc := range []struct {
		multi  bool
		lo, hi time.Duration
	}{{false, time.Millisecond, 2 * time.Millisecond}, {true, 4 * time.Millisecond, 7 * time.Millisecond}} {
		delay := Config{TimeScale: 1, MultiRegion: tc.multi, Seed: 1}.commitDelay()
		for i := 0; i < 100; i++ {
			if d := delay(1, 0, 0); d < tc.lo || d >= tc.hi {
				t.Fatalf("multi-region %v: one round %v, want in [%v, %v)", tc.multi, d, tc.lo, tc.hi)
			}
			if d := delay(3, 0, 0); d < 2*tc.lo || d >= 2*tc.hi {
				t.Fatalf("multi-region %v: two rounds %v, want in [%v, %v)", tc.multi, d, 2*tc.lo, 2*tc.hi)
			}
		}
	}
	delay := Config{TimeScale: 0.5}.commitDelay()
	shipped := delay(1, 1<<20, 100) - delay(1, 0, 0)
	if want := 20*time.Millisecond + 1500*time.Microsecond; shipped < want-500*time.Microsecond || shipped > want+500*time.Microsecond {
		t.Fatalf("1 MiB and 100 rows at TimeScale 0.5 cost %v over an empty commit, want ~%v", shipped, want)
	}
}

func TestCloseIdempotent(t *testing.T) {
	r := NewRegion(Config{})
	r.CreateDatabase("app")
	r.Close()
	r.Close()
}

func TestRegionIndexExemption(t *testing.T) {
	// §III-B: exempting a sequentially increasing field avoids index
	// hotspots; queries needing that index then fail.
	r := newRegion(t, Config{})
	r.CreateDatabase("app")
	ctx := context.Background()
	if err := r.AddExemption(ctx, "app", "events", "seq"); err != nil {
		t.Fatal(err)
	}
	if err := r.AddExemption(ctx, "missing", "events", "seq"); err == nil {
		t.Fatal("exemption on missing db accepted")
	}
	for i := 0; i < 5; i++ {
		if _, err := r.Commit(ctx, "app", priv, []backend.WriteOp{{
			Kind: backend.OpSet, Name: doc.MustName(fmt.Sprintf("/events/e%d", i)),
			Fields: map[string]doc.Value{"seq": doc.Int(int64(i)), "kind": doc.String("click")},
		}}); err != nil {
			t.Fatal(err)
		}
	}
	// Querying the exempted field fails (no index exists for it)...
	_, _, err := r.RunQuery(ctx, "app", priv, &query.Query{
		Collection: doc.MustCollection("/events"),
		Predicates: []query.Predicate{{Path: "seq", Op: query.Gt, Value: doc.Int(1)}},
	}, nil, 0)
	if err == nil {
		t.Fatal("query on exempted field succeeded")
	}
	// ...while other fields remain queryable.
	res, _, err := r.RunQuery(ctx, "app", priv, &query.Query{
		Collection: doc.MustCollection("/events"),
		Predicates: []query.Predicate{{Path: "kind", Op: query.Eq, Value: doc.String("click")}},
	}, nil, 0)
	if err != nil || len(res.Docs) != 5 {
		t.Fatalf("kind query = %v, %v", res, err)
	}
	// And the exempted field produced no index entries: validation is
	// still clean (no orphans/missing).
	report, err := r.Backend.ValidateDatabase(ctx, "app")
	if err != nil || !report.Clean() {
		t.Fatalf("validation after exemption: %v, %v", report, err)
	}
}

func TestRegionCountQuery(t *testing.T) {
	r := newRegion(t, Config{Billing: true})
	r.CreateDatabase("app")
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		r.Commit(ctx, "app", priv, []backend.WriteOp{{
			Kind: backend.OpSet, Name: doc.MustName(fmt.Sprintf("/c/d%d", i)),
			Fields: map[string]doc.Value{"n": doc.Int(int64(i))},
		}})
	}
	res, _, err := r.Backend.RunAggregation(ctx, "app", priv, &query.Query{
		Collection: doc.MustCollection("/c"),
		Predicates: []query.Predicate{{Path: "n", Op: query.Lt, Value: doc.Int(5)}},
	}, []query.Aggregation{{Kind: query.AggCount, Alias: "n"}}, 0)
	if err != nil || res.Values["n"].IntVal() != 5 {
		t.Fatalf("count = %+v, %v", res, err)
	}
	// COUNT bills index work, not result size: 1 read for 5 entries.
	if got := r.Billing.UsageFor("app").Reads; got != 1 {
		t.Fatalf("count billed %d reads, want 1", got)
	}
}

func TestRealTimeDeliveryThroughRebalance(t *testing.T) {
	// Slicer-style rebalancing: listeners pile onto one range until it
	// auto-splits; deliveries must continue across the reset-and-requery
	// recovery, transparently to the clients.
	r := newRegion(t, Config{RTRanges: 1, RTAutoSplitSubs: 6})
	r.CreateDatabase("app")
	ctx := context.Background()
	const listeners = 12
	type listenerState struct {
		conn   *frontend.Conn
		target int64
	}
	var ls []listenerState
	for i := 0; i < listeners; i++ {
		coll := fmt.Sprintf("/c%d", i%4)
		name := doc.MustName(coll + "/seed")
		r.Commit(ctx, "app", priv, []backend.WriteOp{{
			Kind: backend.OpSet, Name: name, Fields: map[string]doc.Value{"v": doc.Int(0)},
		}})
		conn := r.NewConn("app", priv)
		defer conn.Close()
		target, err := conn.Listen(ctx, &query.Query{Collection: doc.MustCollection(coll)})
		if err != nil {
			t.Fatal(err)
		}
		<-conn.Events() // initial
		ls = append(ls, listenerState{conn, target})
	}
	// Wait for the auto-split to happen.
	deadline := time.Now().Add(3 * time.Second)
	for r.Cache.RangeCount() == 1 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if r.Cache.RangeCount() == 1 {
		t.Fatal("no automatic split")
	}
	// Every listener still receives post-split writes (possibly via the
	// requery path).
	for i, l := range ls {
		coll := fmt.Sprintf("/c%d", i%4)
		r.Commit(ctx, "app", priv, []backend.WriteOp{{
			Kind: backend.OpSet, Name: doc.MustName(coll + "/seed"),
			Fields: map[string]doc.Value{"v": doc.Int(int64(100 + i))},
		}})
		got := false
		wait := time.After(5 * time.Second)
		for !got {
			select {
			case ev, ok := <-l.conn.Events():
				if !ok {
					t.Fatalf("listener %d closed", i)
				}
				if ev.TargetID != l.target {
					continue
				}
				for _, d := range append(ev.Added, ev.Modified...) {
					if d.Fields["v"].IntVal() == int64(100+i) {
						got = true
					}
				}
			case <-wait:
				t.Fatalf("listener %d missed its post-split write", i)
			}
		}
	}
}

// RaceDetector lets the external test package skip allocation counts
// under -race.
const RaceDetector = raceDetector
