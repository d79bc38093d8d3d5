package rtcache

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"firestore/internal/doc"
	"firestore/internal/query"
	"firestore/internal/truetime"
)

// recorder is a Subscriber capturing events.
type recorder struct {
	mu         sync.Mutex
	updates    []Update
	watermarks map[int]truetime.Timestamp
	resets     int
}

func newRecorder() *recorder {
	return &recorder{watermarks: map[int]truetime.Timestamp{}}
}

func (r *recorder) OnUpdate(rangeID int, subID int64, u Update) {
	r.mu.Lock()
	r.updates = append(r.updates, u)
	r.mu.Unlock()
}

func (r *recorder) OnWatermark(rangeID int, subID int64, ts truetime.Timestamp) {
	r.mu.Lock()
	if ts > r.watermarks[rangeID] {
		r.watermarks[rangeID] = ts
	}
	r.mu.Unlock()
}

func (r *recorder) OnReset(rangeID int, subID int64) {
	r.mu.Lock()
	r.resets++
	r.mu.Unlock()
}

func (r *recorder) updateCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.updates)
}

func (r *recorder) resetCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.resets
}

func (r *recorder) watermark(rangeID int) truetime.Timestamp {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.watermarks[rangeID]
}

func testCache(t *testing.T) *Cache {
	t.Helper()
	c := New(Config{
		Clock:          truetime.NewSystem(10 * time.Microsecond),
		Ranges:         4,
		HeartbeatEvery: time.Millisecond,
	})
	t.Cleanup(c.Close)
	return c
}

func ratingsQuery() *query.Query {
	return &query.Query{Collection: doc.MustCollection("/restaurants/one/ratings")}
}

func ratingDoc(id string, rating int64) *doc.Document {
	return doc.New(doc.MustName("/restaurants/one/ratings/"+id), map[string]doc.Value{
		"rating": doc.Int(rating),
	})
}

// rangeFor returns the range that owns name's collection now.
func (c *Cache) rangeFor(db string, name doc.Name) *nameRange {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ownerLocked(db, name.First())
}

// markOutOfSync resets r as an unknown outcome or an expiry does.
func (r *nameRange) markOutOfSync() {
	r.mu.Lock()
	r.markOutOfSyncLocked()
	batch := r.startDrainLocked()
	r.mu.Unlock()
	r.drain(batch)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestPrepareAcceptDeliversMatch(t *testing.T) {
	c := testCache(t)
	rec := newRecorder()
	q := ratingsQuery()
	c.Subscribe(rec, "db1", q, 0, 0)

	d := ratingDoc("1", 5)
	min, err := c.Prepare("w1", "db1", []doc.Name{d.Name}, truetime.Max)
	if err != nil {
		t.Fatal(err)
	}
	ts := min + 100
	c.Accept(context.Background(), "w1", OutcomeSuccess, ts, []Mutation{{Name: d.Name, New: d}})

	waitFor(t, "update delivery", func() bool { return rec.updateCount() == 1 })
	rec.mu.Lock()
	u := rec.updates[0]
	rec.mu.Unlock()
	if u.TS != ts || !u.Matches || u.New == nil || !u.New.Equal(d) {
		t.Fatalf("update = %+v", u)
	}
	// The range's watermark must reach the commit timestamp.
	rid := c.rangeFor("db1", d.Name).id
	waitFor(t, "watermark", func() bool { return rec.watermark(rid) >= ts })
}

func TestNonMatchingUpdateNotDelivered(t *testing.T) {
	c := testCache(t)
	rec := newRecorder()
	q := &query.Query{
		Collection: doc.MustCollection("/restaurants/one/ratings"),
		Predicates: []query.Predicate{{Path: "rating", Op: query.Ge, Value: doc.Int(4)}},
	}
	c.Subscribe(rec, "db1", q, 0, 0)
	d := ratingDoc("1", 2) // below the predicate
	min, _ := c.Prepare("w1", "db1", []doc.Name{d.Name}, truetime.Max)
	c.Accept(context.Background(), "w1", OutcomeSuccess, min+1, []Mutation{{Name: d.Name, New: d}})
	time.Sleep(20 * time.Millisecond)
	if rec.updateCount() != 0 {
		t.Fatal("non-matching update delivered")
	}
}

func TestRemovalDeliveredWhenDocStopsMatching(t *testing.T) {
	c := testCache(t)
	rec := newRecorder()
	q := &query.Query{
		Collection: doc.MustCollection("/restaurants/one/ratings"),
		Predicates: []query.Predicate{{Path: "rating", Op: query.Ge, Value: doc.Int(4)}},
	}
	c.Subscribe(rec, "db1", q, 0, 0)
	old := ratingDoc("1", 5)
	new := ratingDoc("1", 1)
	min, _ := c.Prepare("w1", "db1", []doc.Name{old.Name}, truetime.Max)
	c.Accept(context.Background(), "w1", OutcomeSuccess, min+1, []Mutation{{Name: old.Name, Old: old, New: new}})
	waitFor(t, "removal delivery", func() bool { return rec.updateCount() == 1 })
	rec.mu.Lock()
	u := rec.updates[0]
	rec.mu.Unlock()
	if u.Matches || u.New != nil {
		t.Fatalf("expected removal, got %+v", u)
	}
}

func TestDeleteDelivered(t *testing.T) {
	c := testCache(t)
	rec := newRecorder()
	q := ratingsQuery()
	c.Subscribe(rec, "db1", q, 0, 0)
	old := ratingDoc("1", 5)
	min, _ := c.Prepare("w1", "db1", []doc.Name{old.Name}, truetime.Max)
	c.Accept(context.Background(), "w1", OutcomeSuccess, min+1, []Mutation{{Name: old.Name, Old: old}})
	waitFor(t, "delete delivery", func() bool { return rec.updateCount() == 1 })
}

func TestUpdatesBeforeSubscriptionVersionSkipped(t *testing.T) {
	c := testCache(t)
	rec := newRecorder()
	q := ratingsQuery()
	d := ratingDoc("1", 5)
	// Subscribe with afterTS far in the future; a commit below it must
	// not be delivered.
	c.Subscribe(rec, "db1", q, truetime.Max-1000, 0)
	min, _ := c.Prepare("w1", "db1", []doc.Name{d.Name}, truetime.Max)
	c.Accept(context.Background(), "w1", OutcomeSuccess, min+1, []Mutation{{Name: d.Name, New: d}})
	time.Sleep(20 * time.Millisecond)
	if rec.updateCount() != 0 {
		t.Fatal("pre-version update delivered")
	}
}

func TestFailedWriteDropped(t *testing.T) {
	c := testCache(t)
	rec := newRecorder()
	q := ratingsQuery()
	c.Subscribe(rec, "db1", q, 0, 0)
	d := ratingDoc("1", 5)
	min, _ := c.Prepare("w1", "db1", []doc.Name{d.Name}, truetime.Max)
	_ = min
	c.Accept(context.Background(), "w1", OutcomeFailure, 0, nil)
	time.Sleep(20 * time.Millisecond)
	if rec.updateCount() != 0 {
		t.Fatal("failed write delivered")
	}
	if rec.resetCount() != 0 {
		t.Fatal("failed write caused reset")
	}
}

func TestUnknownOutcomeResetsRange(t *testing.T) {
	c := testCache(t)
	rec := newRecorder()
	q := ratingsQuery()
	c.Subscribe(rec, "db1", q, 0, 0)
	d := ratingDoc("1", 5)
	c.Prepare("w1", "db1", []doc.Name{d.Name}, truetime.Max)
	c.Accept(context.Background(), "w1", OutcomeUnknown, 0, nil)
	waitFor(t, "reset", func() bool { return rec.resetCount() >= 1 })
	if c.Stats().OutOfSyncs == 0 {
		t.Fatal("out-of-sync not counted")
	}
	// Subscriptions on the range were dropped.
	if c.Stats().Subscriptions != 0 {
		t.Fatalf("subscriptions = %d after reset", c.Stats().Subscriptions)
	}
}

func TestMissingAcceptTimesOut(t *testing.T) {
	clock := truetime.NewSystem(10 * time.Microsecond)
	c := New(Config{
		Clock:          clock,
		Ranges:         2,
		HeartbeatEvery: time.Millisecond,
	})
	defer c.Close()
	rec := newRecorder()
	q := ratingsQuery()
	c.Subscribe(rec, "db1", q, 0, 0)
	d := ratingDoc("1", 5)
	c.Prepare("w1", "db1", []doc.Name{d.Name}, clock.Now().Latest.Add(20*time.Millisecond))
	// Never send the Accept: the range must reset once TrueTime passes
	// the max commit timestamp (the "Spanner commit is successful but the
	// Accept RPC is not received" failure mode).
	waitFor(t, "timeout reset", func() bool { return rec.resetCount() >= 1 })
	// A very late Accept is ignored harmlessly.
	c.Accept(context.Background(), "w1", OutcomeSuccess, 999999, []Mutation{{Name: d.Name, New: d}})
	time.Sleep(10 * time.Millisecond)
	if rec.updateCount() != 0 {
		t.Fatal("late accept delivered updates")
	}
}

func TestWatermarkHeldByPendingPrepare(t *testing.T) {
	c := testCache(t)
	rec := newRecorder()
	q := ratingsQuery()
	c.Subscribe(rec, "db1", q, 0, 0)
	d := ratingDoc("1", 5)
	rid := c.rangeFor("db1", d.Name).id

	min, _ := c.Prepare("w1", "db1", []doc.Name{d.Name}, truetime.Max)
	time.Sleep(20 * time.Millisecond) // heartbeats run but must not pass min
	if wm := c.RangeStats()[rid].Watermark; wm >= min {
		t.Fatalf("watermark %d advanced past pending prepare min %d", wm, min)
	}
	ts := min + 10
	c.Accept(context.Background(), "w1", OutcomeSuccess, ts, []Mutation{{Name: d.Name, New: d}})
	waitFor(t, "watermark past commit", func() bool { return c.RangeStats()[rid].Watermark >= ts })
}

func TestHeartbeatAdvancesIdleRange(t *testing.T) {
	c := testCache(t)
	rec := newRecorder()
	q := ratingsQuery()
	_, rid := c.Subscribe(rec, "db1", q, 0, 0)
	waitFor(t, "idle heartbeat watermark", func() bool { return rec.watermark(rid) > 0 })
	w1 := rec.watermark(rid)
	waitFor(t, "watermark still advancing", func() bool { return rec.watermark(rid) > w1 })
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	c := testCache(t)
	rec := newRecorder()
	q := ratingsQuery()
	subID, _ := c.Subscribe(rec, "db1", q, 0, 0)
	c.Unsubscribe(rec, subID)
	d := ratingDoc("1", 5)
	min, _ := c.Prepare("w1", "db1", []doc.Name{d.Name}, truetime.Max)
	c.Accept(context.Background(), "w1", OutcomeSuccess, min+1, []Mutation{{Name: d.Name, New: d}})
	time.Sleep(20 * time.Millisecond)
	if rec.updateCount() != 0 {
		t.Fatal("unsubscribed recorder got updates")
	}
}

func TestDuplicateWriteIDRejected(t *testing.T) {
	c := testCache(t)
	d := ratingDoc("1", 5)
	if _, err := c.Prepare("w1", "db1", []doc.Name{d.Name}, truetime.Max); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Prepare("w1", "db1", []doc.Name{d.Name}, truetime.Max); err == nil {
		t.Fatal("duplicate write ID accepted")
	}
	c.Accept(context.Background(), "w1", OutcomeFailure, 0, nil)
}

func TestMinTimestampsMonotonicPerRange(t *testing.T) {
	c := testCache(t)
	d := ratingDoc("1", 5)
	var last truetime.Timestamp
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("w%d", i)
		min, err := c.Prepare(id, "db1", []doc.Name{d.Name}, truetime.Max)
		if err != nil {
			t.Fatal(err)
		}
		if min <= last && i > 0 {
			// mins may repeat while watermark is held, but must never
			// go backwards.
			if min < last {
				t.Fatalf("min went backwards: %d after %d", min, last)
			}
		}
		last = min
		c.Accept(context.Background(), id, OutcomeSuccess, min+truetime.Timestamp(i)+1, []Mutation{{Name: d.Name, New: d}})
	}
}

func TestConcurrentWritesAndSubscribers(t *testing.T) {
	c := testCache(t)
	recs := make([]*recorder, 4)
	q := ratingsQuery()
	for i := range recs {
		recs[i] = newRecorder()
		c.Subscribe(recs[i], "db1", q, 0, 0)
	}
	const writes = 50
	var wg sync.WaitGroup
	for i := 0; i < writes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d := ratingDoc(fmt.Sprintf("%d", i), int64(i))
			id := fmt.Sprintf("w%d", i)
			min, err := c.Prepare(id, "db1", []doc.Name{d.Name}, truetime.Max)
			if err != nil {
				t.Error(err)
				return
			}
			c.Accept(context.Background(), id, OutcomeSuccess, min+truetime.Timestamp(i)+1, []Mutation{{Name: d.Name, New: d}})
		}(i)
	}
	wg.Wait()
	for i, rec := range recs {
		waitFor(t, fmt.Sprintf("recorder %d full delivery", i), func() bool {
			return rec.updateCount() == writes
		})
	}
}

func TestMultiTenantIsolation(t *testing.T) {
	// Two databases with identically named documents and queries: each
	// subscriber must only see its own database's updates.
	c := testCache(t)
	recA, recB := newRecorder(), newRecorder()
	q := ratingsQuery()
	c.Subscribe(recA, "dbA", q, 0, 0)
	c.Subscribe(recB, "dbB", q, 0, 0)
	d := ratingDoc("1", 5)
	min, _ := c.Prepare("w1", "dbA", []doc.Name{d.Name}, truetime.Max)
	c.Accept(context.Background(), "w1", OutcomeSuccess, min+1, []Mutation{{Name: d.Name, New: d}})
	waitFor(t, "dbA delivery", func() bool { return recA.updateCount() == 1 })
	time.Sleep(20 * time.Millisecond)
	if recB.updateCount() != 0 {
		t.Fatal("dbB subscriber saw dbA's update")
	}
}

func TestRebalanceSplitsHotRange(t *testing.T) {
	c := New(Config{
		Clock:          truetime.NewSystem(10 * time.Microsecond),
		Ranges:         2,
		HeartbeatEvery: time.Millisecond,
	})
	defer c.Close()
	// Load one range with many subscriptions across several collections
	// (multiple slots), so it is splittable.
	recs := make([]*recorder, 12)
	for i := range recs {
		recs[i] = newRecorder()
		q := &query.Query{Collection: doc.MustCollection(fmt.Sprintf("/coll%d", i))}
		c.Subscribe(recs[i], "db1", q, 0, 0)
	}
	before := c.RangeCount()
	if !c.Rebalance(1) {
		t.Fatal("rebalance found nothing to split")
	}
	if got := c.RangeCount(); got != before+1 {
		t.Fatalf("ranges = %d, want %d", got, before+1)
	}
	// Subscribers of the split range were reset (they would requery and
	// resubscribe in the frontend).
	resets := 0
	for _, r := range recs {
		resets += r.resetCount()
	}
	if resets == 0 {
		t.Fatal("no subscriber was reset by the split")
	}
	// New subscriptions and writes flow under the new assignment.
	rec := newRecorder()
	q := &query.Query{Collection: doc.MustCollection("/coll0")}
	c.Subscribe(rec, "db1", q, 0, 0)
	d := doc.New(doc.MustName("/coll0/x"), map[string]doc.Value{"n": doc.Int(1)})
	min, err := c.Prepare("w-post-split", "db1", []doc.Name{d.Name}, truetime.Max)
	if err != nil {
		t.Fatal(err)
	}
	c.Accept(context.Background(), "w-post-split", OutcomeSuccess, min+1, []Mutation{{Name: d.Name, New: d}})
	waitFor(t, "post-split delivery", func() bool { return rec.updateCount() == 1 })
}

func TestAutoSplitOnHeartbeat(t *testing.T) {
	c := New(Config{
		Clock:          truetime.NewSystem(10 * time.Microsecond),
		Ranges:         1,
		HeartbeatEvery: time.Millisecond,
		AutoSplitSubs:  4,
	})
	defer c.Close()
	for i := 0; i < 8; i++ {
		q := &query.Query{Collection: doc.MustCollection(fmt.Sprintf("/c%d", i))}
		c.Subscribe(newRecorder(), "db1", q, 0, 0)
	}
	waitFor(t, "automatic split", func() bool { return c.RangeCount() > 1 })
}

func TestChangelogReplayForLateSubscription(t *testing.T) {
	// The In-memory Changelog must replay updates a subscriber's
	// max-commit-version predates but that were forwarded before the
	// subscription registered (the window between the initial query and
	// Subscribe, and ownership handoffs).
	c := testCache(t)
	d := ratingDoc("1", 5)
	// Commit a write with NO subscribers.
	min, _ := c.Prepare("w1", "db1", []doc.Name{d.Name}, truetime.Max)
	ts := min + 10
	c.Accept(context.Background(), "w1", OutcomeSuccess, ts, []Mutation{{Name: d.Name, New: d}})
	// Subscribe afterwards with afterTS below the commit: replay.
	rec := newRecorder()
	q := ratingsQuery()
	c.Subscribe(rec, "db1", q, ts-1, 0)
	waitFor(t, "replayed update", func() bool { return rec.updateCount() == 1 })
	// A subscriber at afterTS >= ts gets nothing.
	rec2 := newRecorder()
	c.Subscribe(rec2, "db1", q, ts, 0)
	time.Sleep(20 * time.Millisecond)
	if rec2.updateCount() != 0 {
		t.Fatal("replay ignored afterTS")
	}
}

func TestSubscribeBelowTrimmedHorizonResets(t *testing.T) {
	// A subscription the changelog can no longer serve completely (its
	// afterTS predates trimmed entries) must reset immediately.
	c := testCache(t)
	d := ratingDoc("1", 5)
	rid := c.rangeFor("db1", d.Name).id
	// Let heartbeats advance the watermark first so the reset records a
	// meaningful horizon.
	waitFor(t, "watermark progress", func() bool { return c.RangeStats()[rid].Watermark > 1 })
	c.Prepare("w1", "db1", []doc.Name{d.Name}, truetime.Max)
	c.Accept(context.Background(), "w1", OutcomeUnknown, 0, nil) // forces trimmedBefore forward
	rec := newRecorder()
	q := ratingsQuery()
	c.Subscribe(rec, "db1", q, 1 /* ancient */, 0)
	waitFor(t, "immediate reset", func() bool { return rec.resetCount() >= 1 })
}

// TestMultiRangeWriteSettlesEachShare: a write over two ranges hands each
// range the mutations of the names that prepared there, and one carrying
// a mutation Prepare did not name resets both ranges instead.
func TestMultiRangeWriteSettlesEachShare(t *testing.T) {
	c := quietCache(t)
	ctx := context.Background()
	a := ratingDoc("1", 5)
	b := otherRangeDoc(t, c, c.rangeFor("db1", a.Name))
	recA, recB := newRecorder(), newRecorder()
	c.Subscribe(recA, "db1", ratingsQuery(), 0, 0)
	c.Subscribe(recB, "db1", &query.Query{Collection: b.Name.Collection()}, 0, 0)
	names := []doc.Name{a.Name, b.Name}
	min, err := c.Prepare("w1", "db1", names, truetime.Max)
	if err != nil {
		t.Fatal(err)
	}
	c.Accept(ctx, "w1", OutcomeSuccess, min, []Mutation{{Name: a.Name, New: a}, {Name: b.Name, New: b}})
	if recA.updateCount() != 1 || recB.updateCount() != 1 {
		t.Fatalf("updates %d and %d, want one on each range", recA.updateCount(), recB.updateCount())
	}
	stray := ratingDoc("2", 4)
	min, _ = c.Prepare("w2", "db1", names, truetime.Max)
	c.Accept(ctx, "w2", OutcomeSuccess, min+1, []Mutation{{Name: a.Name, New: a}, {Name: stray.Name, New: stray}})
	if recA.resetCount() != 1 || recB.resetCount() != 1 || recA.updateCount() != 1 {
		t.Fatalf("resets %d and %d, %d updates on the first range; want a reset on each and no update", recA.resetCount(), recB.resetCount(), recA.updateCount())
	}
}
