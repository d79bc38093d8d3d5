package rtcache

import (
	"bytes"
	"slices"
	"sync"

	"firestore/internal/doc"
	"firestore/internal/encoding"
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
	w       *watcher // its subscriber's record on the range
	// coll lists the subscription in its range's matcher: in
	// coll.eq[eqKey], by its value at eqPath, or in coll.any if eqKey is "".
	coll   *collSubs
	eqPath doc.FieldPath
	eqKey  string
}

// watcher is one subscriber on a range: how many of its subscriptions
// are registered there, and where its queued watermark sits in the
// outbox while nothing of the subscriber's is queued behind it (wmGen ==
// the range's outbox generation), so the next one raises it in place.
type watcher struct {
	sub        Subscriber
	subs, wmAt int
	wmGen      uint64
}

// matcher indexes a range's subscriptions by (db, collection) and the
// path and value of the first equality conjunct, or by (db, collection)
// alone in the any bucket. A mutation's candidates, that bucket and those
// of its old and new values at each listed path, are a superset of its
// matches: a value keys by its index encoding, the same bytes exactly
// when doc.Equal holds (1 and 1.0, -0 and 0, NaN and NaN).
type matcher struct {
	colls    map[string]*collSubs // by db, 0, collection
	key, alt []byte               // lookup scratch
}

type collSubs struct {
	any   []*subscription
	eq    map[string][]*subscription // by path, 0, encoded value
	paths map[doc.FieldPath]int      // eq's paths, with their subscription counts
}

func (m *matcher) collKey(db string, coll doc.CollectionPath) []byte {
	m.key = append(append(append(m.key[:0], db...), 0), coll.String()...)
	return m.key
}

// valueKey appends to dst the bucket key of d's value at path, if any.
func valueKey(dst []byte, path doc.FieldPath, d *doc.Document) ([]byte, bool) {
	if d == nil {
		return dst, false
	}
	v, ok := d.Get(path)
	return encoding.EncodeValue(append(append(dst, path...), 0), v), ok
}

func (m *matcher) add(s *subscription) {
	cs := m.colls[string(m.collKey(s.db, s.q.Collection))]
	if cs == nil {
		cs = &collSubs{eq: map[string][]*subscription{}, paths: map[doc.FieldPath]int{}}
		m.colls[string(m.key)] = cs
	}
	s.coll = cs
	i := slices.IndexFunc(s.q.Predicates, func(p query.Predicate) bool { return p.Op == query.Eq })
	if i < 0 {
		cs.any = append(cs.any, s)
		return
	}
	p := s.q.Predicates[i]
	s.eqPath, s.eqKey = p.Path, string(encoding.EncodeValue(append([]byte(p.Path), 0), p.Value))
	cs.eq[s.eqKey] = append(cs.eq[s.eqKey], s)
	cs.paths[p.Path]++
}

func (m *matcher) remove(s *subscription) {
	cs, self := s.coll, func(o *subscription) bool { return o == s }
	if s.eqKey == "" {
		cs.any = slices.DeleteFunc(cs.any, self)
	} else {
		if cs.eq[s.eqKey] = slices.DeleteFunc(cs.eq[s.eqKey], self); len(cs.eq[s.eqKey]) == 0 {
			delete(cs.eq, s.eqKey)
		}
		if cs.paths[s.eqPath]--; cs.paths[s.eqPath] == 0 {
			delete(cs.paths, s.eqPath)
		}
	}
	if len(cs.any) == 0 && len(cs.eq) == 0 {
		delete(m.colls, string(m.collKey(s.db, s.q.Collection)))
	}
}

// nameRange is one document-name range: its Changelog state (pending
// prepares, watermark) fused with its Query Matcher state (registered
// queries). The paper separates these into two task types; semantically
// the pair share a range, so they are colocated here.
//
// Delivery contract. Every subscriber-visible event of the range —
// matched updates, watermarks, Subscribe's changelog replay and first
// watermark, resets — is appended to outbox under mu, in the order mu
// produced it, and handed to subscribers outside mu by one drainer at a
// time. A subscription's first watermark, OnWatermark(id, subID, ts),
// queues right behind its replay; later ones are its subscriber's,
// OnWatermark(id, 0, ts), one per subscriber. So if a watermark at ts is
// delivered, every OnUpdate with TS <= ts that will ever be delivered for
// a subscription of that subscriber whose first watermark came no later
// was delivered before it; after OnReset nothing more comes for that
// subID. An undelivered subscriber watermark with nothing of the
// subscriber's queued behind it is raised in place by the next one, so
// an idle range queues at most one event per subscriber.
type nameRange struct {
	id  int
	met *metrics
	kv  *keyviz.Collector
	// slots counts the slots Cache.assign gives this range; Cache.mu
	// guards it, as it guards assign.
	slots int

	mu sync.Mutex
	// pending holds the prepares whose Accept has not arrived, in Prepare
	// order.
	pending []prepare
	// watermark: all updates <= watermark have been queued for delivery.
	watermark truetime.Timestamp
	// lastTS is the largest commit timestamp resolved here.
	lastTS truetime.Timestamp
	// subs holds the registered queries by subscription ID, watchers
	// their subscribers, and match indexes the same subscriptions by the
	// mutations that can match them.
	subs     map[int64]*subscription
	watchers map[Subscriber]*watcher
	match    matcher

	// log retains recently forwarded mutations (the "In-memory
	// Changelog"), replayed to new subscriptions whose max-commit-version
	// predates updates already forwarded. trimmedBefore is the timestamp
	// at or below which entries may have been discarded; a subscription
	// with afterTS below it cannot be served completely and must reset.
	log           changelog
	trimmedBefore truetime.Timestamp

	// outbox collects events under mu; the drainer swaps it against
	// spare (the previous batch's backing array) so steady-state delivery
	// allocates nothing. gen counts swaps and invalidates watcher wmAt
	// indexes into a batch that has been taken.
	outbox   []event
	spare    []event
	gen      uint64
	draining bool

	outOfSyncs int64
	forwarded  int64
}

// prepare is one outstanding Prepare on a range. The write record
// carries everything the ranges share (database, max timestamp); only
// the minimum timestamp is per range.
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
	return &nameRange{id: id, met: met, kv: kv, subs: map[int64]*subscription{}, watchers: map[Subscriber]*watcher{}, match: matcher{colls: map[string]*collSubs{}}, gen: 1}
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

// settle finishes w on this range with the Accept's outcome: success
// forwards muts, the range's share of the write, failure releases the
// prepare, and unknown resets the range. A range that no longer holds w
// was reset since, with a horizon past w's maxTS, and does nothing.
func (r *nameRange) settle(w *write, outcome Outcome, muts []Mutation, ts truetime.Timestamp) {
	r.mu.Lock()
	forwarded, matched := 0, 0
	switch i := slices.IndexFunc(r.pending, func(p prepare) bool { return p.w == w }); {
	case i < 0:
		// Reset since: nothing left to settle.
	case outcome == OutcomeUnknown:
		r.markOutOfSyncLocked()
	default:
		r.pending = slices.Delete(r.pending, i, i+1)
		if outcome == OutcomeSuccess {
			forwarded = len(muts)
			r.lastTS = max(r.lastTS, ts)
			r.forwarded += int64(forwarded)
			matched = r.matchLocked(w.db, muts, ts)
			for _, m := range muts {
				if trimmed, full := r.log.push(loggedMutation{ts: ts, db: w.db, mut: m}); full {
					r.trimmedBefore = trimmed
				}
			}
		}
		r.advanceWatermarkLocked()
	}
	batch := r.startDrainLocked()
	r.mu.Unlock()
	if forwarded > 0 {
		r.met.forwarded.With(w.db).Add(int64(forwarded))
		if matched > 0 {
			r.met.fanout.With(w.db).Add(int64(matched))
		}
		// Deliver heat: mutations resolved on this range, with fan-out
		// cost as bytes-free op weight (matcher work scales with
		// deliveries).
		r.kv.Sample(keyviz.SrcRange, uint64(r.id), keyviz.OpDeliver, int64(forwarded+matched), 0, 0)
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

// matchLocked evaluates mutations against the registered queries its
// matcher names as candidates, queues the matches in mutation order and
// returns their count.
func (r *nameRange) matchLocked(db string, muts []Mutation, ts truetime.Timestamp) int {
	if len(r.subs) == 0 {
		return 0
	}
	matched := 0
	for _, m := range muts {
		cs := r.match.colls[string(r.match.collKey(db, m.Name.Collection()))]
		if cs == nil {
			continue
		}
		matched += r.queueMatchesLocked(cs.any, db, m, ts)
		for path := range cs.paths {
			var hasOld, hasNew bool
			r.match.key, hasOld = valueKey(r.match.key[:0], path, m.Old)
			r.match.alt, hasNew = valueKey(r.match.alt[:0], path, m.New)
			if hasOld {
				matched += r.queueMatchesLocked(cs.eq[string(r.match.key)], db, m, ts)
			}
			if hasNew && !(hasOld && bytes.Equal(r.match.key, r.match.alt)) {
				matched += r.queueMatchesLocked(cs.eq[string(r.match.alt)], db, m, ts)
			}
		}
	}
	return matched
}

// queueMatchesLocked queues m for each candidate in subs it matches.
func (r *nameRange) queueMatchesLocked(subs []*subscription, db string, m Mutation, ts truetime.Timestamp) int {
	matched := 0
	for _, s := range subs {
		if s.db != db || ts <= s.afterTS {
			continue // other databases' queries (multi-tenant range), or already in the initial snapshot
		}
		if u, ok := matchUpdate(s.q, m, ts); ok {
			r.queueUpdateLocked(s, u)
			matched++
		}
	}
	return matched
}

func (r *nameRange) queueUpdateLocked(s *subscription, u Update) {
	s.w.wmGen = 0 // a later watermark must queue behind this update
	r.outbox = append(r.outbox, event{kind: evUpdate, sub: s.sub, subID: s.subID, u: u})
}

// queueWatermarkLocked queues the range's watermark for w's subscriber,
// raising its undelivered one when nothing of its was queued since.
func (r *nameRange) queueWatermarkLocked(w *watcher) {
	if w.wmGen == r.gen {
		r.outbox[w.wmAt].u.TS = r.watermark
		return
	}
	w.wmAt, w.wmGen = len(r.outbox), r.gen
	r.outbox = append(r.outbox, event{kind: evWatermark, sub: w.sub, u: Update{TS: r.watermark}})
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
	for _, w := range r.watchers {
		r.queueWatermarkLocked(w)
	}
}

// heartbeat advances the watermark on idle ranges and expires prepares
// whose Accept never arrived by the time TrueTime passed their max commit
// timestamp (→ out-of-sync). It returns the watermark.
func (r *nameRange) heartbeat(now truetime.Timestamp) truetime.Timestamp {
	r.mu.Lock()
	if slices.ContainsFunc(r.pending, func(p prepare) bool { return now > p.w.maxTS }) {
		r.markOutOfSyncLocked()
	} else if len(r.pending) == 0 && now > r.watermark {
		r.lastTS = max(r.lastTS, now)
		r.setWatermarkLocked(now)
	}
	wm, batch := r.watermark, r.startDrainLocked()
	r.mu.Unlock()
	r.drain(batch)
	return wm
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

// markOutOfSyncLocked abandons ordering guarantees for the range: pending
// state is dropped, subscriptions are cancelled, and every subscriber is
// told to reset ("the Frontend task then aborts all accumulated state for
// that query and redoes the steps starting with the initial query
// request").
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
	clear(r.watchers)
	clear(r.match.colls)
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

// Subscribe registers q for matching on the range that owns database
// db's query collection, delivering only updates after afterTS (§IV-D4
// step 4). reserved, when non-zero, is an ID from ReserveSub; zero
// allocates one. It returns the subscription ID and the range's ID. The
// range is found and locked under c.mu, so a split either reassigns the
// collection before the lookup or resets the registration after it.
func (c *Cache) Subscribe(sub Subscriber, db string, q *query.Query, afterTS truetime.Timestamp, reserved int64) (int64, int) {
	subID := reserved
	if subID == 0 {
		subID = c.ReserveSub()
	}
	c.mu.Lock()
	r := c.ownerLocked(db, q.Collection.First())
	r.mu.Lock()
	c.mu.Unlock()
	r.subscribeLocked(&subscription{subID: subID, sub: sub, db: db, afterTS: afterTS, q: q})
	batch := r.startDrainLocked()
	r.mu.Unlock()
	r.drain(batch)
	return subID, r.id
}

// Horizon returns the trim horizon of the range that owns database db's
// query collection: Subscribe resets a subscription whose afterTS is
// below it, so a query rebuilt for that range must read past it.
func (c *Cache) Horizon(db string, q *query.Query) truetime.Timestamp {
	c.mu.Lock()
	r := c.ownerLocked(db, q.Collection.First())
	r.mu.Lock()
	c.mu.Unlock()
	defer r.mu.Unlock()
	return r.trimmedBefore
}

// subscribeLocked registers s and queues, in one critical section, what
// it missed: updates after s.afterTS may already have been forwarded
// before this registration, so they are replayed from the in-memory
// changelog, followed by s's first watermark, even at 0: it tells the
// subscriber that its subscriber watermarks cover s from then on. If the
// log no longer reaches back to afterTS the subscription cannot be served
// completely and is reset instead (the frontend requeries at a fresher
// timestamp).
func (r *nameRange) subscribeLocked(s *subscription) {
	if s.afterTS < r.trimmedBefore {
		r.outbox = append(r.outbox, event{kind: evReset, sub: s.sub, subID: s.subID})
		return
	}
	if s.w = r.watchers[s.sub]; s.w == nil {
		s.w = &watcher{sub: s.sub}
		r.watchers[s.sub] = s.w
	}
	s.w.subs++
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
	r.match.add(s)
	s.w.wmGen = 0 // the next subscriber watermark must queue behind this one
	r.outbox = append(r.outbox, event{kind: evWatermark, sub: s.sub, subID: s.subID, u: Update{TS: r.watermark}})
}

// Unsubscribe removes a subscription from every range. Events already
// queued for it may still be delivered.
func (c *Cache) Unsubscribe(sub Subscriber, subID int64) {
	c.mu.Lock()
	ranges := c.ranges
	c.mu.Unlock()
	for _, r := range ranges {
		r.mu.Lock()
		if s, ok := r.subs[subID]; ok && s.sub == sub {
			delete(r.subs, subID)
			r.match.remove(s)
			if s.w.subs--; s.w.subs == 0 {
				delete(r.watchers, sub)
			}
		}
		r.mu.Unlock()
	}
}
