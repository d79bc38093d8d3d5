package rtcache

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"firestore/internal/doc"
	"firestore/internal/truetime"
)

// quietCache is a cache whose heartbeat loop never fires inside a test:
// watermarks move only when the test resolves a write or calls
// heartbeat itself.
func quietCache(t *testing.T) *Cache {
	t.Helper()
	c := New(Config{
		Clock:          truetime.NewSystem(10 * time.Microsecond),
		Ranges:         4,
		HeartbeatEvery: time.Hour,
	})
	t.Cleanup(c.Close)
	return c
}

// put commits one document at its range's minimum allowed timestamp
// (strictly increasing per range) and returns that timestamp.
func put(t testing.TB, c *Cache, id string, d *doc.Document) truetime.Timestamp {
	t.Helper()
	ts, err := c.Prepare(id, "db1", []doc.Name{d.Name}, truetime.Max)
	if err != nil {
		t.Error(err) // callers include non-test goroutines
		return 0
	}
	c.Accept(context.Background(), id, OutcomeSuccess, ts, []Mutation{{Name: d.Name, New: d}})
	return ts
}

// seen is one delivered callback.
type seen struct {
	kind eventKind
	ts   truetime.Timestamp
}

// gated is a Subscriber that records, per subscription, every callback
// in arrival order, and parks the first OnUpdate on gate until the test
// releases it.
type gated struct {
	gate    chan struct{}
	entered chan struct{}

	mu     sync.Mutex
	parked bool
	events map[int64][]seen
	// armed maps each subscription whose first watermark arrived, and
	// that was not reset since, to its range.
	armed map[int64]int
}

func newGated() *gated {
	return &gated{gate: make(chan struct{}), entered: make(chan struct{}), events: map[int64][]seen{}, armed: map[int64]int{}}
}

func (g *gated) record(subID int64, e seen) (first bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.events[subID] = append(g.events[subID], e)
	if e.kind == evUpdate && !g.parked {
		g.parked = true
		return true
	}
	return false
}

func (g *gated) OnUpdate(_ int, subID int64, u Update) {
	if g.record(subID, seen{evUpdate, u.TS}) {
		close(g.entered)
		<-g.gate
	}
}

// OnWatermark records a subscription's first watermark, and a subscriber
// watermark (subID 0) for every subscription it covers: each one on the
// range whose first watermark came earlier.
func (g *gated) OnWatermark(rangeID int, subID int64, ts truetime.Timestamp) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if subID != 0 {
		g.armed[subID] = rangeID
	}
	for id, rid := range g.armed {
		if id == subID || subID == 0 && rid == rangeID {
			g.events[id] = append(g.events[id], seen{evWatermark, ts})
		}
	}
}
func (g *gated) OnReset(_ int, subID int64) {
	g.mu.Lock()
	delete(g.armed, subID)
	g.mu.Unlock()
	g.record(subID, seen{kind: evReset})
}

func (g *gated) of(subID int64) []seen {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]seen(nil), g.events[subID]...)
}

// checkContract asserts the delivery contract on one subscription's
// callback sequence: no update at or below an already delivered
// watermark, and nothing after a reset.
func checkContract(t *testing.T, who string, evs []seen) {
	t.Helper()
	var wm truetime.Timestamp
	for i, e := range evs {
		if i > 0 && evs[i-1].kind == evReset {
			t.Fatalf("%s: event %d delivered after OnReset: %+v", who, i, evs)
		}
		switch e.kind {
		case evUpdate:
			if e.ts <= wm {
				t.Fatalf("%s: update TS %d delivered after watermark %d: %+v", who, e.ts, wm, evs)
			}
		case evWatermark:
			wm = max(wm, e.ts)
		}
	}
}

func count(evs []seen, kind eventKind) int {
	n := 0
	for _, e := range evs {
		if e.kind == kind {
			n++
		}
	}
	return n
}

// TestWatermarkNeverOvertakesUpdate is the regression test for the
// deliver-after-unlock race: while one subscription's OnUpdate is stuck,
// a later write resolves, the heartbeat advances the watermark and a new
// subscription replays the changelog — and still every subscription sees
// its range's events in the order the range lock produced them. Two
// subscriptions share the blocked write, so one of them has its update
// still undelivered when the watermark covering it is produced.
func TestWatermarkNeverOvertakesUpdate(t *testing.T) {
	c := quietCache(t)
	q := ratingsQuery()
	g := newGated()
	subA, _ := c.Subscribe(g, "db1", q, 0, 0)
	subB, _ := c.Subscribe(g, "db1", q, 0, 0)
	d := ratingDoc("1", 5)
	r := c.rangeFor("db1", d.Name)

	// The first writer becomes the range's drainer and parks inside the
	// subscriber with the rest of its batch undelivered.
	var ts1 truetime.Timestamp
	drainer := make(chan struct{})
	go func() {
		defer close(drainer)
		ts1 = put(t, c, "w1", d)
	}()
	<-g.entered

	// None of these may block behind the parked callback, on this range or
	// another.
	unblocked := make(chan truetime.Timestamp)
	go func() { unblocked <- put(t, c, "w2", ratingDoc("2", 4)) }()
	ts2 := <-unblocked
	now := ts2.Add(time.Second)
	r.heartbeat(now)
	late := newGated()
	late.parked = true // records only
	subC, _ := c.Subscribe(late, "db1", q, 0, 0)
	other := otherRangeDoc(t, c, r)
	put(t, c, "w3", other)

	// One drainer at a time: everything above is queued behind the parked
	// update, in lock order. Only the two first watermarks, at 0, came
	// before it.
	if n := len(g.of(subA)) + len(g.of(subB)); n != 3 {
		t.Fatalf("%d callbacks delivered while the drainer is parked, want 3", n)
	}
	if n := len(late.of(subC)); n != 0 {
		t.Fatalf("late subscription got %d callbacks ahead of the queue", n)
	}
	close(g.gate)
	<-drainer // the drainer leaves only once the outbox is empty

	for who, evs := range map[string][]seen{"A": g.of(subA), "B": g.of(subB), "C": late.of(subC)} {
		checkContract(t, who, evs)
		if n := count(evs, evUpdate); n != 2 {
			t.Fatalf("%s: %d updates, want 2: %+v", who, n, evs)
		}
		if last := evs[len(evs)-1]; last.kind != evWatermark || last.ts != now {
			t.Fatalf("%s: last event %+v, want watermark %d", who, last, now)
		}
	}
	// w2's watermark was still queued, with nothing behind it for the
	// subscriber, when the heartbeat's arrived: superseded in place. One
	// subscriber watermark covers both subscriptions.
	for _, id := range []int64{subA, subB} {
		evs := g.of(id)
		want := []seen{{evWatermark, 0}, {evUpdate, ts1}, {evWatermark, ts1}, {evUpdate, ts2}, {evWatermark, now}}
		if fmt.Sprint(evs) != fmt.Sprint(want) {
			t.Fatalf("sub %d saw %+v, want %+v", id, evs, want)
		}
	}
	// The replay is the same history in one piece.
	if evs, want := late.of(subC), []seen{{evUpdate, ts1}, {evUpdate, ts2}, {evWatermark, now}}; fmt.Sprint(evs) != fmt.Sprint(want) {
		t.Fatalf("replayed subscription saw %+v, want %+v", evs, want)
	}

	// After a reset nothing more reaches the old subscriptions.
	r.markOutOfSync()
	put(t, c, "w4", ratingDoc("3", 3))
	r.heartbeat(now.Add(time.Second))
	for who, evs := range map[string][]seen{"A": g.of(subA), "B": g.of(subB), "C": late.of(subC)} {
		checkContract(t, who, evs)
		if last := evs[len(evs)-1]; last.kind != evReset || count(evs, evReset) != 1 {
			t.Fatalf("%s: want exactly one trailing reset: %+v", who, evs)
		}
	}
	// A subscription below the trim horizon is reset through the outbox
	// too, and never registered.
	stale := newGated()
	subD, _ := c.Subscribe(stale, "db1", q, ts1, 0)
	put(t, c, "w5", ratingDoc("4", 2))
	if evs := stale.of(subD); len(evs) != 1 || evs[0].kind != evReset {
		t.Fatalf("stale subscription saw %+v, want one reset", evs)
	}
}

// TestOneWatermarkPerSubscriber: a heartbeat queues one watermark per
// subscriber on a range, however many of its subscriptions the range
// holds.
func TestOneWatermarkPerSubscriber(t *testing.T) {
	c := New(Config{Clock: truetime.NewSystem(10 * time.Microsecond), Ranges: 1, HeartbeatEvery: time.Hour})
	t.Cleanup(c.Close)
	many, one := &tallySubscriber{}, &tallySubscriber{}
	for i := range 32 {
		c.Subscribe(many, "db1", collQuery(i), 0, 0)
	}
	c.Subscribe(one, "db1", collQuery(0), 0, 0)
	before := many.watermarks.Load() + one.watermarks.Load()
	c.tick(context.Background())
	if got := many.watermarks.Load() + one.watermarks.Load() - before; got != 2 {
		t.Fatalf("a tick over 33 subscriptions of 2 subscribers on one range delivered %d watermarks, want 2", got)
	}
}

// otherRangeDoc returns a document owned by a range other than r.
func otherRangeDoc(t *testing.T, c *Cache, r *nameRange) *doc.Document {
	t.Helper()
	for i := 0; i < 64; i++ {
		d := doc.New(doc.MustName(fmt.Sprintf("/coll%d/x", i)), nil)
		if c.rangeFor("db1", d.Name) != r {
			return d
		}
	}
	t.Fatal("no collection routed to another range")
	return nil
}

// fillLog commits n single-mutation writes to the ratings range and
// returns their timestamps.
func fillLog(t testing.TB, c *Cache, n int) []truetime.Timestamp {
	t.Helper()
	d := ratingDoc("fill", 1)
	out := make([]truetime.Timestamp, n)
	for i := range out {
		out[i] = put(t, c, fmt.Sprintf("fill%d", i), d)
	}
	return out
}

func updateTimestamps(evs []seen) []truetime.Timestamp {
	var out []truetime.Timestamp
	for _, e := range evs {
		if e.kind == evUpdate {
			out = append(out, e.ts)
		}
	}
	return out
}

// TestChangelogRingWrapAround: past logCap the ring overwrites its
// oldest entries in place; replay stays in commit order, and
// trimmedBefore is exactly the last overwritten entry's timestamp — a
// subscription at it replays everything newer, one below it resets.
func TestChangelogRingWrapAround(t *testing.T) {
	c := quietCache(t)
	const extra = 100
	tss := fillLog(t, c, logCap+extra)
	r := c.rangeFor("db1", ratingDoc("fill", 1).Name)
	if r.trimmedBefore != tss[extra-1] {
		t.Fatalf("trimmedBefore = %d, want the last overwritten entry's %d", r.trimmedBefore, tss[extra-1])
	}
	if got := c.RangeStats()[r.id].LogLen; got != logCap {
		t.Fatalf("LogLen = %d, want %d", got, logCap)
	}

	at := newGated()
	at.parked = true
	id, _ := c.Subscribe(at, "db1", ratingsQuery(), r.trimmedBefore, 0)
	got := updateTimestamps(at.of(id))
	if len(got) != logCap {
		t.Fatalf("replayed %d updates, want %d", len(got), logCap)
	}
	for i, ts := range got {
		if ts != tss[extra+i] {
			t.Fatalf("replay[%d] = %d, want %d (commit order)", i, ts, tss[extra+i])
		}
	}
	checkContract(t, "at", at.of(id))

	below := newGated()
	id, _ = c.Subscribe(below, "db1", ratingsQuery(), r.trimmedBefore-1, 0)
	if evs := below.of(id); len(evs) != 1 || evs[0].kind != evReset {
		t.Fatalf("subscription below the horizon saw %+v, want one reset", evs)
	}
}

// TestChangelogRingStraddlingCommit: a multi-mutation commit cut by the
// wrap leaves trimmedBefore at its timestamp; its surviving entries are
// not replayed to a subscription at that timestamp (which saw the whole
// commit in its snapshot), and one below it resets.
func TestChangelogRingStraddlingCommit(t *testing.T) {
	c := quietCache(t)
	const per = 3
	commits := logCap/per + 1 // 4098 entries: the first commit loses two of its three
	var tss []truetime.Timestamp
	for i := 0; i < commits; i++ {
		id := fmt.Sprintf("m%d", i)
		muts := make([]Mutation, per)
		names := make([]doc.Name, per)
		for j := range muts {
			d := ratingDoc(fmt.Sprintf("d%d", j), int64(i))
			muts[j], names[j] = Mutation{Name: d.Name, New: d}, d.Name
		}
		ts, err := c.Prepare(id, "db1", names, truetime.Max)
		if err != nil {
			t.Fatal(err)
		}
		c.Accept(context.Background(), id, OutcomeSuccess, ts, muts)
		tss = append(tss, ts)
	}
	r := c.rangeFor("db1", ratingDoc("d0", 0).Name)
	if r.trimmedBefore != tss[0] || r.log.at(0).ts != tss[0] || r.log.at(1).ts != tss[1] {
		t.Fatalf("trimmedBefore=%d oldest=%d next=%d, want the cut commit %d then %d",
			r.trimmedBefore, r.log.at(0).ts, r.log.at(1).ts, tss[0], tss[1])
	}
	at := newGated()
	at.parked = true
	id, _ := c.Subscribe(at, "db1", ratingsQuery(), tss[0], 0)
	got := updateTimestamps(at.of(id))
	if len(got) != (commits-1)*per || got[0] != tss[1] || got[len(got)-1] != tss[commits-1] {
		t.Fatalf("replayed %d updates [%d..%d], want %d from %d to %d",
			len(got), got[0], got[len(got)-1], (commits-1)*per, tss[1], tss[commits-1])
	}
	below := newGated()
	id, _ = c.Subscribe(below, "db1", ratingsQuery(), tss[0]-1, 0)
	if evs := below.of(id); len(evs) != 1 || evs[0].kind != evReset {
		t.Fatalf("subscription below the cut commit saw %+v, want one reset", evs)
	}
}

// TestChangelogClearedInPlace: out-of-sync and crash empty the ring
// without giving up its array or pinning the old documents, and LogLen
// (/debug/listenz) follows.
func TestChangelogClearedInPlace(t *testing.T) {
	c := quietCache(t)
	fillLog(t, c, 10)
	r := c.rangeFor("db1", ratingDoc("fill", 1).Name)
	buf := r.log.buf
	for name, clearLog := range map[string]func(){"markOutOfSync": r.markOutOfSync, "crash": r.crash} {
		clearLog()
		if got := c.RangeStats()[r.id].LogLen; got != 0 {
			t.Fatalf("%s: LogLen = %d, want 0", name, got)
		}
		if r.log.buf != buf {
			t.Fatalf("%s: ring reallocated", name)
		}
		for i := range buf {
			if e := &buf[i]; e.ts != 0 || e.db != "" || e.mut.New != nil || e.mut.Name.Segments() != nil {
				t.Fatalf("%s: slot %d still holds %+v", name, i, *e)
			}
		}
		fillLog(t, c, 7)
		if got := c.RangeStats()[r.id].LogLen; got != 7 {
			t.Fatalf("%s: LogLen = %d after 7 writes, want 7", name, got)
		}
	}
}

// nopSubscriber matches and discards.
type nopSubscriber struct{}

func (nopSubscriber) OnUpdate(int, int64, Update)                {}
func (nopSubscriber) OnWatermark(int, int64, truetime.Timestamp) {}
func (nopSubscriber) OnReset(int, int64)                         {}

// TestPrepareAcceptAllocationFlat pins the commit-path cost of the
// real-time layer: at the changelog cap a Prepare+Accept allocates the
// write record and nothing that scales with logCap, with or without a
// matching subscriber.
func TestPrepareAcceptAllocationFlat(t *testing.T) {
	const runs = 2000
	ids := make([]string, runs+1) // AllocsPerRun adds a warm-up call
	for i := range ids {
		ids[i] = fmt.Sprintf("pin%d", i)
	}
	d := ratingDoc("pin", 1)
	names := []doc.Name{d.Name}
	muts := []Mutation{{Name: d.Name, New: d}}
	ctx := context.Background()
	measure := func(c *Cache) (allocs float64) {
		next := 0
		return testing.AllocsPerRun(runs, func() {
			id := ids[next]
			next++
			ts, err := c.Prepare(id, "db1", names, truetime.Max)
			if err != nil {
				t.Fatal(err)
			}
			c.Accept(ctx, id, OutcomeSuccess, ts, muts)
		})
	}

	full := quietCache(t)
	fillLog(t, full, logCap)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := measure(full)
	runtime.ReadMemStats(&after)
	if got > 4 {
		t.Errorf("Prepare+Accept at the cap, no subscribers: %.0f allocs/op, want <= 4", got)
	}
	if perOp := (after.TotalAlloc - before.TotalAlloc) / (runs + 1); perOp >= 512 {
		t.Errorf("Prepare+Accept at the cap, no subscribers: %d B/op, want < 512", perOp)
	}

	full.Subscribe(nopSubscriber{}, "db1", ratingsQuery(), full.rangeFor("db1", d.Name).trimmedBefore, 0)
	nearlyEmpty := quietCache(t)
	nearlyEmpty.Subscribe(nopSubscriber{}, "db1", ratingsQuery(), 0, 0)
	atCap, fresh := measure(full), measure(nearlyEmpty)
	if atCap != fresh || atCap > 4 {
		t.Errorf("one matching subscriber: %.0f allocs/op at the cap vs %.0f on a fresh log, want equal and <= 4", atCap, fresh)
	}
}
