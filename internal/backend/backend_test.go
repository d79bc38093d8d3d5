package backend

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"firestore/internal/billing"
	"firestore/internal/catalog"
	"firestore/internal/doc"
	"firestore/internal/fault"
	"firestore/internal/index"
	"firestore/internal/query"
	"firestore/internal/rtcache"
	"firestore/internal/rules"
	"firestore/internal/spanner"
	"firestore/internal/status"
	"firestore/internal/truetime"
	"firestore/internal/wfq"
)

type env struct {
	b     *Backend
	cat   *catalog.Catalog
	cache *rtcache.Cache
	acct  *billing.Accountant
	dbID  string
}

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
	t.Helper()
	clock := truetime.NewSystem(10 * time.Microsecond)
	sp := spanner.New(spanner.Config{Clock: clock, LockTimeout: 300 * time.Millisecond})
	cat := catalog.New([]*spanner.DB{sp})
	cache := rtcache.New(rtcache.Config{Clock: clock, Ranges: 4, HeartbeatEvery: time.Millisecond})
	t.Cleanup(cache.Close)
	acct := billing.New(billing.DefaultFreeQuota, billing.DefaultRates, nil)
	b := New(Config{Catalog: cat, Cache: cache, Billing: acct})
	if _, err := cat.Create("app"); err != nil {
		t.Fatal(err)
	}
	return &env{b: b, cat: cat, cache: cache, acct: acct, dbID: "app"}
}

var priv = Principal{Privileged: true}

func set(t *testing.T, e *env, name string, fields map[string]doc.Value) truetime.Timestamp {
	t.Helper()
	ts, err := e.b.Commit(context.Background(), e.dbID, priv, []WriteOp{
		{Kind: OpSet, Name: doc.MustName(name), Fields: fields},
	})
	if err != nil {
		t.Fatalf("set %s: %v", name, err)
	}
	return ts
}

func get(t *testing.T, e *env, name string) *doc.Document {
	t.Helper()
	d, _, err := e.b.GetDocument(context.Background(), e.dbID, priv, doc.MustName(name), 0)
	if err != nil {
		t.Fatalf("get %s: %v", name, err)
	}
	return d
}

func TestWriteReadRoundTrip(t *testing.T) {
	e := newEnv(t)
	ts := set(t, e, "/restaurants/one", map[string]doc.Value{
		"name":      doc.String("Burger Garden"),
		"avgRating": doc.Double(4.5),
	})
	d := get(t, e, "/restaurants/one")
	if d.Fields["name"].StringVal() != "Burger Garden" {
		t.Fatalf("doc = %s", d)
	}
	if d.UpdateTime != ts || d.CreateTime != ts {
		t.Fatalf("timestamps: create=%d update=%d commit=%d", d.CreateTime, d.UpdateTime, ts)
	}
	// Update: UpdateTime advances, CreateTime sticks.
	ts2 := set(t, e, "/restaurants/one", map[string]doc.Value{"name": doc.String("BG")})
	d2 := get(t, e, "/restaurants/one")
	if d2.CreateTime != ts || d2.UpdateTime != ts2 {
		t.Fatalf("after update: create=%d (want %d) update=%d (want %d)", d2.CreateTime, ts, d2.UpdateTime, ts2)
	}
}

func TestPreconditions(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	n := doc.MustName("/c/x")
	// Update of missing doc fails.
	_, err := e.b.Commit(ctx, e.dbID, priv, []WriteOp{{Kind: OpUpdate, Name: n, Fields: map[string]doc.Value{}}})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("update missing = %v", err)
	}
	// Create succeeds, then a second create fails.
	if _, err := e.b.Commit(ctx, e.dbID, priv, []WriteOp{{Kind: OpCreate, Name: n, Fields: map[string]doc.Value{"a": doc.Int(1)}}}); err != nil {
		t.Fatal(err)
	}
	_, err = e.b.Commit(ctx, e.dbID, priv, []WriteOp{{Kind: OpCreate, Name: n, Fields: map[string]doc.Value{}}})
	if !errors.Is(err, ErrAlreadyExists) {
		t.Fatalf("double create = %v", err)
	}
	// Delete is idempotent.
	for i := 0; i < 2; i++ {
		if _, err := e.b.Commit(ctx, e.dbID, priv, []WriteOp{{Kind: OpDelete, Name: n}}); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	if _, _, err := e.b.GetDocument(ctx, e.dbID, priv, n, 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get deleted = %v", err)
	}
}

func TestMultiDocumentAtomicity(t *testing.T) {
	// The paper's example: insert a rating and update the restaurant's
	// aggregates in one transaction.
	e := newEnv(t)
	ctx := context.Background()
	set(t, e, "/restaurants/one", map[string]doc.Value{
		"avgRating": doc.Double(0), "numRatings": doc.Int(0),
	})
	_, err := e.b.Commit(ctx, e.dbID, priv, []WriteOp{
		{Kind: OpCreate, Name: doc.MustName("/restaurants/one/ratings/2"),
			Fields: map[string]doc.Value{"rating": doc.Int(5), "userID": doc.String("alice")}},
		{Kind: OpUpdate, Name: doc.MustName("/restaurants/one"),
			Fields: map[string]doc.Value{"avgRating": doc.Double(5), "numRatings": doc.Int(1)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if get(t, e, "/restaurants/one").Fields["numRatings"].IntVal() != 1 {
		t.Fatal("aggregate not updated")
	}
	// A failing op (create of existing rating) must roll back everything.
	_, err = e.b.Commit(ctx, e.dbID, priv, []WriteOp{
		{Kind: OpUpdate, Name: doc.MustName("/restaurants/one"),
			Fields: map[string]doc.Value{"avgRating": doc.Double(1), "numRatings": doc.Int(99)}},
		{Kind: OpCreate, Name: doc.MustName("/restaurants/one/ratings/2"), Fields: map[string]doc.Value{}},
	})
	if !errors.Is(err, ErrAlreadyExists) {
		t.Fatalf("expected ErrAlreadyExists, got %v", err)
	}
	if got := get(t, e, "/restaurants/one").Fields["numRatings"].IntVal(); got != 1 {
		t.Fatalf("partial write leaked: numRatings = %d", got)
	}
}

func TestQueryAfterWrites(t *testing.T) {
	e := newEnv(t)
	for i := 0; i < 20; i++ {
		city := "SF"
		if i%2 == 0 {
			city = "NY"
		}
		set(t, e, fmt.Sprintf("/restaurants/r%02d", i), map[string]doc.Value{
			"city":   doc.String(city),
			"rating": doc.Int(int64(i % 5)),
		})
	}
	q := &query.Query{
		Collection: doc.MustCollection("/restaurants"),
		Predicates: []query.Predicate{{Path: "city", Op: query.Eq, Value: doc.String("SF")}},
	}
	res, ts, err := e.b.RunQuery(context.Background(), e.dbID, priv, q, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Docs) != 10 {
		t.Fatalf("query returned %d docs, want 10", len(res.Docs))
	}
	if ts == 0 {
		t.Fatal("no read timestamp")
	}
	// Index must stay consistent after updates and deletes.
	set(t, e, "/restaurants/r01", map[string]doc.Value{"city": doc.String("LA"), "rating": doc.Int(0)})
	e.b.Commit(context.Background(), e.dbID, priv, []WriteOp{{Kind: OpDelete, Name: doc.MustName("/restaurants/r03")}})
	res, _, err = e.b.RunQuery(context.Background(), e.dbID, priv, q, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Docs) != 8 {
		t.Fatalf("after update+delete: %d docs, want 8", len(res.Docs))
	}
}

func TestSnapshotQueryAtOldTimestamp(t *testing.T) {
	e := newEnv(t)
	set(t, e, "/c/a", map[string]doc.Value{"v": doc.Int(1)})
	ts1 := e.cat.MustGet(e.dbID).Spanner.StrongReadTimestamp()
	set(t, e, "/c/a", map[string]doc.Value{"v": doc.Int(2)})
	d, _, err := e.b.GetDocument(context.Background(), e.dbID, priv, doc.MustName("/c/a"), ts1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Fields["v"].IntVal() != 1 {
		t.Fatalf("snapshot read saw v=%d, want 1", d.Fields["v"].IntVal())
	}
}

func TestRulesEnforcedForThirdParty(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	rs, err := rules.Parse(`
match /restaurants/{r}/ratings/{id} {
  allow read: if request.auth != null;
  allow create: if request.auth != null && request.resource.data.userID == request.auth.uid;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	e.cat.MustGet(e.dbID).SetRules(rs)

	alice := Principal{Auth: &rules.Auth{UID: "alice"}}
	n := doc.MustName("/restaurants/one/ratings/1")
	// Create with matching uid allowed.
	_, err = e.b.Commit(ctx, e.dbID, alice, []WriteOp{{Kind: OpCreate, Name: n,
		Fields: map[string]doc.Value{"userID": doc.String("alice"), "rating": doc.Int(5)}}})
	if err != nil {
		t.Fatalf("allowed create failed: %v", err)
	}
	// Create with foreign uid denied.
	_, err = e.b.Commit(ctx, e.dbID, alice, []WriteOp{{Kind: OpCreate, Name: doc.MustName("/restaurants/one/ratings/2"),
		Fields: map[string]doc.Value{"userID": doc.String("bob")}}})
	if !errors.Is(err, rules.ErrDenied) {
		t.Fatalf("foreign create = %v", err)
	}
	// Update denied (rules only allow read+create).
	_, err = e.b.Commit(ctx, e.dbID, alice, []WriteOp{{Kind: OpUpdate, Name: n,
		Fields: map[string]doc.Value{"userID": doc.String("alice"), "rating": doc.Int(1)}}})
	if !errors.Is(err, rules.ErrDenied) {
		t.Fatalf("update = %v", err)
	}
	// Unauthenticated read denied; authenticated allowed.
	if _, _, err := e.b.GetDocument(ctx, e.dbID, Principal{}, n, 0); !errors.Is(err, rules.ErrDenied) {
		t.Fatalf("anon read = %v", err)
	}
	if _, _, err := e.b.GetDocument(ctx, e.dbID, alice, n, 0); err != nil {
		t.Fatalf("auth read = %v", err)
	}
	// Queries need list permission: "allow read" grants it to
	// authenticated users only.
	q := &query.Query{Collection: doc.MustCollection("/restaurants/one/ratings")}
	if _, _, err := e.b.RunQuery(ctx, e.dbID, alice, q, nil, 0); err != nil {
		t.Fatalf("authenticated query = %v", err)
	}
	if _, _, err := e.b.RunQuery(ctx, e.dbID, Principal{}, q, nil, 0); !errors.Is(err, rules.ErrDenied) {
		t.Fatalf("anonymous query = %v", err)
	}
	// Privileged access bypasses rules entirely.
	if _, _, err := e.b.GetDocument(ctx, e.dbID, priv, n, 0); err != nil {
		t.Fatalf("privileged read = %v", err)
	}
	// No rules deployed at all: third-party denied (fresh db).
	e.cat.Create("bare")
	if _, err := e.b.Commit(ctx, "bare", alice, []WriteOp{{Kind: OpSet, Name: n, Fields: nil}}); !errors.Is(err, rules.ErrDenied) {
		t.Fatalf("no-rules write = %v", err)
	}
}

func TestOCCConflict(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	set(t, e, "/c/x", map[string]doc.Value{"v": doc.Int(1)})
	d := get(t, e, "/c/x")

	// Concurrent writer bumps the doc.
	set(t, e, "/c/x", map[string]doc.Value{"v": doc.Int(2)})

	// A transactional commit validating the stale read must conflict.
	_, err := e.b.CommitTransactional(ctx, e.dbID, priv,
		[]WriteOp{{Kind: OpSet, Name: d.Name, Fields: map[string]doc.Value{"v": doc.Int(10)}}},
		[]ReadValidation{{Name: d.Name, UpdateTime: d.UpdateTime}})
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("stale commit = %v, want ErrConflict", err)
	}
	// Retry with fresh read succeeds.
	d = get(t, e, "/c/x")
	_, err = e.b.CommitTransactional(ctx, e.dbID, priv,
		[]WriteOp{{Kind: OpSet, Name: d.Name, Fields: map[string]doc.Value{"v": doc.Int(10)}}},
		[]ReadValidation{{Name: d.Name, UpdateTime: d.UpdateTime}})
	if err != nil {
		t.Fatalf("fresh commit = %v", err)
	}
	if get(t, e, "/c/x").Fields["v"].IntVal() != 10 {
		t.Fatal("transactional write lost")
	}
	// Validating absence: doc was absent at read, still absent => ok.
	_, err = e.b.CommitTransactional(ctx, e.dbID, priv,
		[]WriteOp{{Kind: OpCreate, Name: doc.MustName("/c/fresh"), Fields: nil}},
		[]ReadValidation{{Name: doc.MustName("/c/fresh"), UpdateTime: 0}})
	if err != nil {
		t.Fatalf("absent validation = %v", err)
	}
}

func TestRealTimeCacheReceivesWrites(t *testing.T) {
	e := newEnv(t)
	rec := &countingSub{}
	q := &query.Query{Collection: doc.MustCollection("/restaurants/one/ratings")}
	e.cache.Subscribe(rec, e.dbID, q, 0, 0)
	set(t, e, "/restaurants/one/ratings/1", map[string]doc.Value{"rating": doc.Int(5)})
	deadline := time.Now().Add(2 * time.Second)
	for rec.count() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if rec.count() != 1 {
		t.Fatalf("cache updates = %d, want 1", rec.count())
	}
}

func TestPrepareFailureFailsWrite(t *testing.T) {
	e := newEnv(t)
	arm(t, fault.Spec{Site: fault.BackendPrepare, Mode: fault.ModeError})
	_, err := e.b.Commit(context.Background(), e.dbID, priv, []WriteOp{
		{Kind: OpSet, Name: doc.MustName("/c/x"), Fields: nil},
	})
	if status.CodeOf(err) != status.Unavailable {
		t.Fatalf("commit with failing prepare = %v", err)
	}
	// The write must not have landed.
	if _, _, err := e.b.GetDocument(context.Background(), e.dbID, priv, doc.MustName("/c/x"), 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("doc exists after failed prepare: %v", err)
	}
}

func TestUnknownOutcomeResetsSubscribers(t *testing.T) {
	e := newEnv(t)
	arm(t, fault.Spec{Site: fault.BackendAccept, Mode: fault.ModeError})
	rec := &countingSub{}
	q := &query.Query{Collection: doc.MustCollection("/c")}
	e.cache.Subscribe(rec, e.dbID, q, 0, 0)
	// Write succeeds from the user's perspective...
	set(t, e, "/c/x", map[string]doc.Value{"v": doc.Int(1)})
	// ...but subscribers get a reset rather than the update.
	deadline := time.Now().Add(2 * time.Second)
	for rec.resets() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if rec.resets() == 0 {
		t.Fatal("no reset after unknown outcome")
	}
	if rec.count() != 0 {
		t.Fatal("update delivered despite unknown outcome")
	}
}

func TestDroppedAcceptTimesOutAndResets(t *testing.T) {
	clock := truetime.NewSystem(10 * time.Microsecond)
	sp := spanner.New(spanner.Config{Clock: clock})
	cat := catalog.New([]*spanner.DB{sp})
	cache := rtcache.New(rtcache.Config{Clock: clock, Ranges: 2, HeartbeatEvery: time.Millisecond, AcceptMargin: 30 * time.Millisecond})
	defer cache.Close()
	b := New(Config{Catalog: cat, Cache: cache})
	arm(t, fault.Spec{Site: fault.BackendAccept, Mode: fault.ModeDrop})
	cat.Create("app")
	rec := &countingSub{}
	q := &query.Query{Collection: doc.MustCollection("/c")}
	cache.Subscribe(rec, "app", q, 0, 0)
	// The write is acknowledged even though the Accept is lost.
	if _, err := b.Commit(context.Background(), "app", priv, []WriteOp{{Kind: OpSet, Name: doc.MustName("/c/x"), Fields: nil}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for rec.resets() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if rec.resets() == 0 {
		t.Fatal("no reset after dropped accept")
	}
}

func TestBillingCounts(t *testing.T) {
	e := newEnv(t)
	set(t, e, "/c/x", map[string]doc.Value{"v": doc.Int(1)})
	get(t, e, "/c/x")
	e.b.Commit(context.Background(), e.dbID, priv, []WriteOp{{Kind: OpDelete, Name: doc.MustName("/c/x")}})
	u := e.acct.UsageFor(e.dbID)
	if u.Writes != 1 || u.Reads != 1 || u.Deletes != 1 {
		t.Fatalf("usage = %+v", u)
	}
}

func TestCompositeBackfillAndQuery(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	// Data exists BEFORE the index is created: backfill must cover it.
	for i := 0; i < 10; i++ {
		city := []string{"SF", "NY"}[i%2]
		set(t, e, fmt.Sprintf("/restaurants/r%d", i), map[string]doc.Value{
			"city":      doc.String(city),
			"avgRating": doc.Double(float64(i)),
		})
	}
	q := &query.Query{
		Collection: doc.MustCollection("/restaurants"),
		Predicates: []query.Predicate{{Path: "city", Op: query.Eq, Value: doc.String("SF")}},
		Orders:     []query.Order{{Path: "avgRating", Dir: index.Descending}},
	}
	// Without the composite, the query needs an index.
	if _, _, err := e.b.RunQuery(ctx, e.dbID, priv, q, nil, 0); err == nil {
		t.Fatal("query planned without composite index")
	}
	def := index.CompositeDef("restaurants",
		index.Field{Path: "city", Dir: index.Ascending},
		index.Field{Path: "avgRating", Dir: index.Descending})
	if err := e.b.AddCompositeIndex(ctx, e.dbID, def); err != nil {
		t.Fatal(err)
	}
	res, _, err := e.b.RunQuery(ctx, e.dbID, priv, q, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Docs) != 5 {
		t.Fatalf("backfilled query = %d docs, want 5", len(res.Docs))
	}
	// Descending order by rating.
	for i := 1; i < len(res.Docs); i++ {
		if res.Docs[i-1].Fields["avgRating"].DoubleVal() < res.Docs[i].Fields["avgRating"].DoubleVal() {
			t.Fatal("composite order wrong")
		}
	}
	// Writes after backfill maintain the index.
	set(t, e, "/restaurants/new", map[string]doc.Value{"city": doc.String("SF"), "avgRating": doc.Double(9.9)})
	res, _, _ = e.b.RunQuery(ctx, e.dbID, priv, q, nil, 0)
	if len(res.Docs) != 6 || res.Docs[0].Name.ID() != "new" {
		t.Fatalf("post-backfill write not indexed: %d docs", len(res.Docs))
	}
	// Removal: the query fails again, and entries are gone.
	if err := e.b.RemoveCompositeIndex(ctx, e.dbID, def.ID); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.b.RunQuery(ctx, e.dbID, priv, q, nil, 0); err == nil {
		t.Fatal("query planned after index removal")
	}
}

func TestTriggerPayloadRoundTrip(t *testing.T) {
	old := doc.New(doc.MustName("/c/x"), map[string]doc.Value{"a": doc.Int(1)})
	new := doc.New(doc.MustName("/c/x"), map[string]doc.Value{"a": doc.Int(2)})
	payload := marshalChange(old, new, old.Name)
	name, o, n, err := UnmarshalChange(payload)
	if err != nil {
		t.Fatal(err)
	}
	if name.String() != "/c/x" || !o.Equal(old) || !n.Equal(new) {
		t.Fatal("round trip mismatch")
	}
	// Insert (no old) and delete (no new).
	name, o, n, err = UnmarshalChange(marshalChange(nil, new, new.Name))
	if err != nil || o != nil || n == nil {
		t.Fatalf("insert payload: %v %v %v", o, n, err)
	}
	_, o, n, err = UnmarshalChange(marshalChange(old, nil, old.Name))
	if err != nil || o == nil || n != nil {
		t.Fatalf("delete payload: %v %v %v", o, n, err)
	}
	if _, _, _, err := UnmarshalChange([]byte{1, 2}); err == nil {
		t.Fatal("corrupt payload accepted")
	}
}

func TestDocumentSizeLimitEnforced(t *testing.T) {
	e := newEnv(t)
	_, err := e.b.Commit(context.Background(), e.dbID, priv, []WriteOp{{
		Kind: OpSet, Name: doc.MustName("/c/big"),
		Fields: map[string]doc.Value{"blob": doc.Bytes(make([]byte, doc.MaxDocSize+1))},
	}})
	if !errors.Is(err, doc.ErrTooLarge) {
		t.Fatalf("oversized write = %v", err)
	}
}

// countingSub is a minimal rtcache.Subscriber.
type countingSub struct {
	mu      sync.Mutex
	updates int
	rsts    int
}

func (s *countingSub) OnUpdate(int, int64, rtcache.Update) {
	s.mu.Lock()
	s.updates++
	s.mu.Unlock()
}
func (s *countingSub) OnWatermark(int, int64, truetime.Timestamp) {}
func (s *countingSub) OnReset(int, int64) {
	s.mu.Lock()
	s.rsts++
	s.mu.Unlock()
}

func (s *countingSub) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.updates
}

func (s *countingSub) resets() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rsts
}

func TestBatchQoSDoesNotStarveUserTraffic(t *testing.T) {
	// Intra-database isolation (§VIII): a batch job flooding ONE database
	// must not starve that same database's latency-sensitive reads.
	clock := truetime.NewSystem(10 * time.Microsecond)
	sp := spanner.New(spanner.Config{Clock: clock})
	cat := catalog.New([]*spanner.DB{sp})
	cat.Create("app")
	sched := wfq.New(wfq.Config{Workers: 1})
	defer sched.Close()
	b := New(Config{Catalog: cat, Scheduler: sched, Costs: Costs{
		Read: func(string) time.Duration { return 2 * time.Millisecond },
	}})
	ctx := context.Background()
	name := doc.MustName("/c/x")
	if _, err := b.Commit(ctx, "app", priv, []WriteOp{{Kind: OpSet, Name: name, Fields: nil}}); err != nil {
		t.Fatal(err)
	}

	// Flood with batch-tagged reads.
	batch := Principal{Privileged: true, Batch: true}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					b.GetDocument(ctx, "app", batch, name, 0)
				}
			}
		}()
	}
	time.Sleep(30 * time.Millisecond) // build a batch backlog

	// Latency-sensitive reads on the same database stay fast: with
	// weight 5:1 they wait behind at most a task or two.
	var worst time.Duration
	for i := 0; i < 10; i++ {
		start := time.Now()
		if _, _, err := b.GetDocument(ctx, "app", priv, name, 0); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d > worst {
			worst = d
		}
	}
	close(stop)
	wg.Wait()
	// Each op costs 2ms; FIFO behind a deep batch backlog would take
	// tens of ms. The QoS weighting must keep it near the service time.
	if worst > 40*time.Millisecond {
		t.Fatalf("latency-sensitive read took %v behind batch backlog", worst)
	}
}
