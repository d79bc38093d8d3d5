package rtcache

import (
	"slices"
	"sync"
	"time"

	"firestore/internal/doc"
	"firestore/internal/keyviz"
	"firestore/internal/query"
	"firestore/internal/truetime"
)

// subscription is one registered real-time query on one range.
type subscription struct {
	subID int64
	sub   Subscriber
	db    string
	// afterTS: only updates with a later commit timestamp are forwarded
	// (the query's max-commit-version at Subscribe time, §IV-D4 step 4).
	afterTS truetime.Timestamp
	q       *query.Query
	// wmAt/wmGen locate this subscription's queued watermark in the
	// outbox while it is the last event queued for it (wmGen == the
	// range's outbox generation); queueWatermarkLocked then raises it in
	// place instead of appending another.
	wmAt  int
	wmGen uint64
}

// nameRange is one document-name range: its Changelog state (pending
// prepares, watermark) fused with its Query Matcher state (registered
// queries). The paper separates these into two task types; semantically
// the pair share a range, so they are colocated here.
//
// Delivery contract. Every subscriber-visible event of the range —
// matched updates, watermark advances, Subscribe's changelog replay and
// initial watermark, resets — is appended to outbox under mu, in the
// order mu produced it, and handed to subscribers outside mu by one
// drainer at a time. So for a given (range, subID): if OnWatermark(ts)
// is delivered, every OnUpdate with TS <= ts that will ever be delivered
// for that subscription was delivered before it; and after OnReset
// nothing further is delivered for that subID. An undelivered watermark
// that is still the last event queued for its subscription is raised in
// place by the next one (watermarks are monotone), so an idle range
// queues at most one event per subscription however slow the subscriber.
type nameRange struct {
	id  int
	met *metrics
	kv  *keyviz.Collector

	mu sync.Mutex
	// pending holds the prepares whose Accept has not arrived, in Prepare
	// order.
	pending []prepare
	// watermark: all updates <= watermark have been queued for delivery.
	watermark truetime.Timestamp
	// lastTS is the largest commit timestamp resolved here.
	lastTS truetime.Timestamp
	// subs holds the registered queries by subscription ID.
	subs map[int64]*subscription

	// log retains recently forwarded mutations (the "In-memory
	// Changelog"), replayed to new subscriptions whose max-commit-version
	// predates updates already forwarded. trimmedBefore is the timestamp
	// at or below which entries may have been discarded; a subscription
	// with afterTS below it cannot be served completely and must reset.
	log           changelog
	trimmedBefore truetime.Timestamp

	// outbox collects events under mu; the drainer swaps it against
	// spare (the previous batch's backing array) so steady-state delivery
	// allocates nothing. gen counts swaps and invalidates subscription
	// wmAt indexes into a batch that has been taken.
	outbox   []event
	spare    []event
	gen      uint64
	draining bool

	outOfSyncs int64
	forwarded  int64
}

// prepare is one outstanding Prepare on a range. The write record
// carries everything the ranges share (database, max timestamp,
// deadline); only the minimum timestamp is per range.
type prepare struct {
	w     *write
	minTS truetime.Timestamp
}

// loggedMutation is one retained changelog entry.
type loggedMutation struct {
	ts  truetime.Timestamp
	db  string
	mut Mutation
}

// logCap bounds the in-memory changelog per range (a power of two).
const logCap = 4096

// changelog is a fixed ring of the last logCap forwarded mutations in
// commit-arrival order, allocated on the first push.
type changelog struct {
	buf   *[logCap]loggedMutation
	start int // index of the oldest retained entry
	n     int // retained entries
}

// push appends e, overwriting the oldest entry when full; it reports the
// overwritten entry's timestamp so the caller can advance its trim
// horizon.
func (l *changelog) push(e loggedMutation) (trimmed truetime.Timestamp, full bool) {
	if l.buf == nil {
		l.buf = new([logCap]loggedMutation)
	}
	slot := &l.buf[(l.start+l.n)%logCap] // the oldest entry's slot once full
	if full = l.n == logCap; full {
		trimmed = slot.ts
		l.start = (l.start + 1) % logCap
	} else {
		l.n++
	}
	*slot = e
	return trimmed, full
}

// at returns the i-th oldest retained entry.
func (l *changelog) at(i int) *loggedMutation { return &l.buf[(l.start+i)%logCap] }

// reset drops every entry in place, releasing the retained documents.
func (l *changelog) reset() {
	if l.n > 0 {
		clear(l.buf[:])
	}
	l.start, l.n = 0, 0
}

type eventKind uint8

const (
	evUpdate eventKind = iota
	evWatermark
	evReset
)

// event is one queued subscriber callback. A watermark's timestamp
// travels in u.TS.
type event struct {
	kind  eventKind
	sub   Subscriber
	subID int64
	u     Update
}

func newNameRange(id int, met *metrics, kv *keyviz.Collector) *nameRange {
	return &nameRange{id: id, met: met, kv: kv, subs: map[int64]*subscription{}, gen: 1}
}

// startDrainLocked claims the drainer role and takes the queued batch,
// or returns nil when there is nothing to deliver or another goroutine
// is already draining (it will pick these events up). The caller unlocks
// mu and passes the batch to drain.
func (r *nameRange) startDrainLocked() []event {
	if r.draining || len(r.outbox) == 0 {
		return nil
	}
	r.draining = true
	return r.takeBatchLocked()
}

func (r *nameRange) takeBatchLocked() []event {
	batch := r.outbox
	r.outbox, r.spare = r.spare, nil
	r.gen++
	return batch
}

// drain delivers batch and whatever is queued meanwhile, with no rtcache
// lock held: subscribers take their own locks, and a slow one delays
// only this range's deliveries, never its Prepare/Accept.
func (r *nameRange) drain(batch []event) {
	for batch != nil {
		for i := range batch {
			e := &batch[i]
			switch e.kind {
			case evUpdate:
				e.sub.OnUpdate(r.id, e.subID, e.u)
			case evWatermark:
				e.sub.OnWatermark(r.id, e.subID, e.u.TS)
			case evReset:
				e.sub.OnReset(r.id, e.subID)
			}
		}
		clear(batch)
		r.mu.Lock()
		r.spare = batch[:0]
		if len(r.outbox) == 0 {
			r.draining = false
			batch = nil
		} else {
			batch = r.takeBatchLocked()
		}
		r.mu.Unlock()
	}
}

// prepare registers a pending write and returns the minimum allowed
// commit timestamp: one past everything this range has already resolved
// or advanced its watermark to, so the complete-sequence invariant holds.
func (r *nameRange) prepare(w *write) truetime.Timestamp {
	r.mu.Lock()
	defer r.mu.Unlock()
	minTS := max(r.watermark, r.lastTS) + 1
	r.pending = append(r.pending, prepare{w: w, minTS: minTS})
	return minTS
}

// resolve completes a pending write: forwards its mutations (success) and
// advances the watermark as far as the remaining prepares allow.
func (r *nameRange) resolve(w *write, muts []Mutation, ts truetime.Timestamp) {
	r.mu.Lock()
	i := slices.IndexFunc(r.pending, func(p prepare) bool { return p.w == w })
	if i < 0 {
		// The range already gave up on this write and reset; the
		// mutations (if any) will be re-observed via requery.
		r.mu.Unlock()
		return
	}
	r.pending = slices.Delete(r.pending, i, i+1)
	matched := 0
	if muts != nil {
		r.lastTS = max(r.lastTS, ts)
		r.forwarded += int64(len(muts))
		matched = r.matchLocked(w.db, muts, ts)
		for _, m := range muts {
			if trimmed, full := r.log.push(loggedMutation{ts: ts, db: w.db, mut: m}); full {
				r.trimmedBefore = trimmed
			}
		}
	}
	r.advanceWatermarkLocked()
	batch := r.startDrainLocked()
	r.mu.Unlock()
	if muts != nil {
		r.met.forwarded.With(w.db).Add(int64(len(muts)))
		if matched > 0 {
			r.met.fanout.With(w.db).Add(int64(matched))
		}
		// Deliver heat: mutations resolved on this range, with fan-out
		// cost as bytes-free op weight (matcher work scales with
		// deliveries).
		r.kv.Sample(keyviz.SrcRange, uint64(r.id), keyviz.OpDeliver, int64(len(muts)+matched), 0, 0)
	}
	r.drain(batch)
}

// matchUpdate evaluates one mutation against q, returning the update to
// deliver if either version of the document matches.
func matchUpdate(q *query.Query, m Mutation, ts truetime.Timestamp) (Update, bool) {
	newMatches := m.New != nil && q.Matches(m.New)
	if !newMatches && (m.Old == nil || !q.Matches(m.Old)) {
		return Update{}, false
	}
	u := Update{TS: ts, Name: m.Name, Matches: newMatches}
	if newMatches {
		u.New = m.New
	}
	return u, true
}

// matchLocked evaluates mutations against every registered query
// ("matches it with all the queries registered for that key range"),
// queues the matches and returns their count.
func (r *nameRange) matchLocked(db string, muts []Mutation, ts truetime.Timestamp) int {
	matched := 0
	for _, s := range r.subs {
		if s.db != db || ts <= s.afterTS {
			continue // other databases' queries (multi-tenant range), or already in the initial snapshot
		}
		for _, m := range muts {
			if u, ok := matchUpdate(s.q, m, ts); ok {
				r.queueUpdateLocked(s, u)
				matched++
			}
		}
	}
	return matched
}

func (r *nameRange) queueUpdateLocked(s *subscription, u Update) {
	s.wmGen = 0 // a later watermark must queue behind this update
	r.outbox = append(r.outbox, event{kind: evUpdate, sub: s.sub, subID: s.subID, u: u})
}

// queueWatermarkLocked queues the range's watermark for s, superseding
// s's undelivered one when no update was queued for s since.
func (r *nameRange) queueWatermarkLocked(s *subscription) {
	if s.wmGen == r.gen {
		r.outbox[s.wmAt].u.TS = r.watermark
		return
	}
	s.wmAt, s.wmGen = len(r.outbox), r.gen
	r.outbox = append(r.outbox, event{kind: evWatermark, sub: s.sub, subID: s.subID, u: Update{TS: r.watermark}})
}

// advanceWatermarkLocked moves the watermark to just below the smallest
// outstanding prepare ("complete sequence of updates until time t once it
// has received Accept responses for all Prepare RPCs with a minimum
// timestamp less than t").
func (r *nameRange) advanceWatermarkLocked() {
	target := r.lastTS
	for _, p := range r.pending {
		target = min(target, p.minTS-1)
	}
	if target > r.watermark {
		r.setWatermarkLocked(target)
	}
}

func (r *nameRange) setWatermarkLocked(ts truetime.Timestamp) {
	r.watermark = ts
	for _, s := range r.subs {
		r.queueWatermarkLocked(s)
	}
}

// heartbeat advances the watermark on idle ranges and expires prepares
// whose Accept never arrived (→ out-of-sync).
func (r *nameRange) heartbeat(now truetime.Timestamp, wall time.Time) {
	r.mu.Lock()
	if slices.ContainsFunc(r.pending, func(p prepare) bool { return wall.After(p.w.deadline) }) {
		r.markOutOfSyncLocked()
	} else if len(r.pending) == 0 && now > r.watermark {
		r.lastTS = max(r.lastTS, now)
		r.setWatermarkLocked(now)
	}
	batch := r.startDrainLocked()
	r.mu.Unlock()
	r.drain(batch)
}

// crash simulates a Changelog task crash-and-restart (the
// RTCacheChangelogCrash fault): every subscriber is reset and the
// restarted task comes back with empty in-memory state — zero watermark
// and last-resolved timestamp, no log, no pending prepares. The trim
// horizon survives (raised by the reset): a restarted task must not
// pretend to own history it never saw, so subscriptions predating the
// crash go through the full requery path.
func (r *nameRange) crash() {
	// The crash lands on the timeline and as fault heat on the victim
	// range's cell, so chaos runs can assert the schedule's intended
	// victim (the busiest range) is what the collector attributed.
	r.kv.Record(keyviz.EvRangeCrash, keyviz.Event{
		Source: keyviz.SrcRange.String(),
		Shard:  uint64(r.id),
		Detail: "changelog task restart",
	})
	r.kv.Sample(keyviz.SrcRange, uint64(r.id), keyviz.OpFault, 1, 0, 0)
	r.mu.Lock()
	r.markOutOfSyncLocked()
	r.watermark = 0
	r.lastTS = 0
	batch := r.startDrainLocked()
	r.mu.Unlock()
	r.drain(batch)
}

// markOutOfSync abandons ordering guarantees for the range: pending state
// is dropped, subscriptions are cancelled, and every subscriber is told
// to reset ("the Frontend task then aborts all accumulated state for that
// query and redoes the steps starting with the initial query request").
func (r *nameRange) markOutOfSync() {
	r.mu.Lock()
	r.markOutOfSyncLocked()
	batch := r.startDrainLocked()
	r.mu.Unlock()
	r.drain(batch)
}

func (r *nameRange) markOutOfSyncLocked() {
	r.outOfSyncs++
	r.met.outOfSync.Inc()
	// Abandoned prepares may still commit at any timestamp up to their
	// maxTS (the Accept is simply lost to this range). Raise the trim
	// horizon past every such potential commit so no later subscription
	// registers below it and silently misses the write — it resets and
	// re-observes the write through its fresh initial snapshot instead.
	for _, p := range r.pending {
		r.trimmedBefore = max(r.trimmedBefore, p.w.maxTS)
	}
	clear(r.pending)
	r.pending = r.pending[:0]
	r.log.reset()
	r.trimmedBefore = max(r.trimmedBefore, r.lastTS, r.watermark)
	// Subscriptions are dropped; the frontend resubscribes after its
	// requery.
	for _, s := range r.subs {
		r.outbox = append(r.outbox, event{kind: evReset, sub: s.sub, subID: s.subID})
	}
	clear(r.subs)
}

// ReserveSub allocates a subscription ID before Subscribe, letting the
// subscriber register its own state under the ID first so no delivery
// can race ahead of it.
func (c *Cache) ReserveSub() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextSub++
	return c.nextSub
}

// Subscribe registers q for matching on the ranges covering database db's
// query collection, delivering only updates after afterTS (§IV-D4 step
// 4). reserved, when non-zero, is an ID from ReserveSub; zero allocates
// one. It returns the subscription ID and the covered range IDs.
func (c *Cache) Subscribe(sub Subscriber, db string, q *query.Query, afterTS truetime.Timestamp, reserved int64) (int64, []int) {
	subID := reserved
	if subID == 0 {
		subID = c.ReserveSub()
	}
	rangeIDs := c.RangesForCollection(db, q.Collection)
	for _, rid := range rangeIDs {
		c.mu.Lock()
		r := c.ranges[rid]
		c.mu.Unlock()
		r.subscribe(&subscription{subID: subID, sub: sub, db: db, afterTS: afterTS, q: q})
	}
	return subID, rangeIDs
}

// subscribe registers s and queues, in one critical section, what it
// missed: updates after s.afterTS may already have been forwarded before
// this registration, so they are replayed from the in-memory changelog,
// followed by the current watermark. If the log no longer reaches back
// to afterTS the subscription cannot be served completely and is reset
// instead (the frontend requeries at a fresher timestamp).
func (r *nameRange) subscribe(s *subscription) {
	r.mu.Lock()
	if s.afterTS < r.trimmedBefore {
		r.outbox = append(r.outbox, event{kind: evReset, sub: s.sub, subID: s.subID})
	} else {
		for i := 0; i < r.log.n; i++ {
			le := r.log.at(i)
			if le.ts <= s.afterTS || le.db != s.db {
				continue
			}
			if u, ok := matchUpdate(s.q, le.mut, le.ts); ok {
				r.queueUpdateLocked(s, u)
			}
		}
		r.subs[s.subID] = s
		if r.watermark > 0 {
			r.queueWatermarkLocked(s)
		}
	}
	batch := r.startDrainLocked()
	r.mu.Unlock()
	r.drain(batch)
}

// Unsubscribe removes a subscription from every range. Events already
// queued for it may still be delivered.
func (c *Cache) Unsubscribe(sub Subscriber, subID int64) {
	c.mu.Lock()
	ranges := append([]*nameRange(nil), c.ranges...)
	c.mu.Unlock()
	for _, r := range ranges {
		r.mu.Lock()
		if s, ok := r.subs[subID]; ok && s.sub == sub {
			delete(r.subs, subID)
		}
		r.mu.Unlock()
	}
}

// Watermark returns a range's current watermark (for tests).
func (c *Cache) Watermark(rangeID int) truetime.Timestamp {
	c.mu.Lock()
	r := c.ranges[rangeID]
	c.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.watermark
}

// RangeForName exposes range routing (for tests and the frontend).
func (c *Cache) RangeForName(db string, n doc.Name) int { return c.rangeFor(db, n).id }
