// Package rtcache implements the Real-time Cache (§IV-D4): the In-memory
// Changelog and the Query Matcher. The Backend runs a two-phase commit
// with the Changelog around every Spanner commit (Prepare carrying a
// maximum commit timestamp, Accept carrying the outcome and the document
// mutations), so the cache sees a complete, gap-free sequence of updates
// per document-name range. Watermarks — advanced by Accepts and by
// heartbeats on idle ranges — tell the Frontends when they have received
// every update up to a timestamp; ranges that cannot guarantee a complete
// sequence (unknown outcomes, timeouts) are marked out-of-sync, forcing
// subscribed queries to reset. Each range retains a bounded in-memory
// changelog of forwarded mutations and replays it to subscriptions whose
// max-commit-version predates updates already forwarded — closing the
// window between a query's initial snapshot and its registration.
//
// Ownership of document-name ranges is a slotted partition of the
// name space that can be rebalanced at runtime: a hot range's slots are
// split onto a freshly created range, and its subscribers recover through
// the same reset-and-requery path used for out-of-sync ranges — the
// in-process equivalent of the paper's Slicer-based load balancing of
// range ownership across Changelog and Query Matcher tasks.
package rtcache

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"firestore/internal/doc"
	"firestore/internal/fault"
	"firestore/internal/keyviz"
	"firestore/internal/obs"
	"firestore/internal/status"
	"firestore/internal/truetime"
)

// Outcome is the result of a prepared write, delivered by Accept.
type Outcome int

const (
	// OutcomeSuccess: the Spanner commit succeeded at the given
	// timestamp; mutations are forwarded to matching queries.
	OutcomeSuccess Outcome = iota
	// OutcomeFailure: the commit definitively failed; the write is
	// dropped.
	OutcomeFailure
	// OutcomeUnknown: the commit outcome is unknown (e.g. timeout); the
	// affected ranges can no longer guarantee ordering and go
	// out-of-sync.
	OutcomeUnknown
)

// Mutation is one document change within a write.
type Mutation struct {
	Name doc.Name
	Old  *doc.Document // nil for inserts
	New  *doc.Document // nil for deletes
}

// Update is a matched document change delivered to a subscriber.
type Update struct {
	TS   truetime.Timestamp
	Name doc.Name
	// New is the document's new version, nil if it was deleted or no
	// longer matches the query.
	New *doc.Document
	// Matches reports whether the new version matches the subscribed
	// query (false = remove from result set).
	Matches bool
}

// Subscriber receives per-range events. One range makes its callbacks
// one at a time, in the order it produced the events and with no cache
// lock held (the delivery contract on nameRange); different ranges
// deliver concurrently. Callbacks MUST NOT call back into the Cache
// synchronously, and a slow one delays every later delivery of its
// range.
type Subscriber interface {
	// OnUpdate delivers one matched change on a range.
	OnUpdate(rangeID int, subID int64, u Update)
	// OnWatermark reports that every update on the range with timestamp
	// <= ts has been delivered.
	OnWatermark(rangeID int, subID int64, ts truetime.Timestamp)
	// OnReset reports the range went out-of-sync; the subscriber must
	// drop accumulated state and re-run its initial query.
	OnReset(rangeID int, subID int64)
}

// Config tunes the cache.
type Config struct {
	Clock truetime.Clock
	// Ranges is the number of document-name ranges (Changelog/Matcher
	// task pairs). Default 8.
	Ranges int
	// HeartbeatEvery advances idle ranges' watermarks at this cadence
	// ("Changelog tasks generate a heartbeat every few milliseconds").
	// Default 2ms.
	HeartbeatEvery time.Duration
	// AcceptMargin is how long, in wall-clock time from the moment Prepare
	// is called, the Changelog waits for the Accept before declaring the
	// range out-of-sync; the Prepare's max timestamp plays no part in it.
	// Default 50ms.
	AcceptMargin time.Duration
	// AutoSplitSubs, when positive, rebalances on the heartbeat loop:
	// a range serving at least this many subscriptions is split and its
	// slots spread over a new range (the Slicer behavior, §IV-D4).
	// Zero disables automatic rebalancing.
	AutoSplitSubs int
	// Obs receives cache metrics: per-database fan-out counters,
	// out-of-sync resets, a subscription gauge, and the watermark lag
	// updated by the heartbeat loop.
	Obs *obs.Registry
	// KeyViz, when set, receives per-range deliver heat and rebalance/
	// crash events for the keyspace heatmap. A disarmed collector costs
	// one atomic load per sample site.
	KeyViz *keyviz.Collector
}

// Cache is the assembled Real-time Cache.
type Cache struct {
	clock         truetime.Clock
	acceptMargin  time.Duration
	autoSplitSubs int
	met           *metrics
	kv            *keyviz.Collector
	stop          chan struct{}
	stopOnce      sync.Once
	wg            sync.WaitGroup

	mu      sync.Mutex
	ranges  []*nameRange
	assign  []int32           // slot -> range ID
	writes  map[string]*write // writeID -> prepared, not yet accepted
	nextSub int64
}

// metrics are the instruments the cache declares when it starts; its
// ranges share them.
type metrics struct {
	outOfSync         *obs.Counter
	forwarded, fanout *obs.CounterVec // {db}
	watermarkLag      *obs.Gauge
}

// New starts a cache.
func New(cfg Config) *Cache {
	if cfg.Clock == nil {
		cfg.Clock = truetime.NewSystem(100 * time.Microsecond)
	}
	if cfg.Ranges <= 0 {
		cfg.Ranges = 8
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 2 * time.Millisecond
	}
	if cfg.AcceptMargin <= 0 {
		cfg.AcceptMargin = 50 * time.Millisecond
	}
	reg := obs.OrNew(cfg.Obs)
	c := &Cache{
		clock:         cfg.Clock,
		acceptMargin:  cfg.AcceptMargin,
		autoSplitSubs: cfg.AutoSplitSubs,
		kv:            cfg.KeyViz,
		stop:          make(chan struct{}),
		writes:        map[string]*write{},
		assign:        make([]int32, slots),
		met: &metrics{
			outOfSync:    reg.Counter("rtcache.out_of_sync", nil),
			forwarded:    reg.CounterVec("rtcache.forwarded", "db"),
			fanout:       reg.CounterVec("rtcache.fanout", "db"),
			watermarkLag: reg.Gauge("rtcache.watermark_lag_seconds", nil),
		},
	}
	for i := 0; i < cfg.Ranges; i++ {
		c.ranges = append(c.ranges, newNameRange(i, c.met, c.kv))
	}
	for slot := range c.assign {
		c.assign[slot] = int32(slot * cfg.Ranges / slots)
	}
	reg.GaugeFunc("rtcache.subscriptions", nil, func() float64 {
		return float64(c.Stats().Subscriptions)
	})
	reg.GaugeFunc("rtcache.ranges", nil, func() float64 {
		return float64(c.RangeCount())
	})
	c.wg.Add(1)
	go c.heartbeatLoop(cfg.HeartbeatEvery)
	return c
}

// Close stops background work.
func (c *Cache) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
}

// RangeCount returns the number of name ranges.
func (c *Cache) RangeCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.ranges)
}

// slots is the granularity of range ownership: the document-name space
// hashes onto this many slots, each assigned to one range. The Slicer
// framework in the paper load-balances by "dynamically changing the
// document-name range ownership across Changelog and Query Matcher
// tasks"; here rebalancing reassigns slots to a freshly created range
// (see splitHotRange).
const slots = 256

// rangeFor returns the range owning a database's document: a uniform
// partition by a hash of (db, first name segment), so one database's
// collections spread across ranges while a collection's documents stay
// together.
func (c *Cache) rangeFor(db string, name doc.Name) *nameRange {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ownerLocked(db, name.Segments()[0])
}

func (c *Cache) ownerLocked(db, topCollection string) *nameRange {
	return c.ranges[c.assign[slotOf(db, topCollection)]]
}

func slotOf(db, topCollection string) int {
	h := uint32(2166136261)
	for _, b := range []byte(db) {
		h = (h ^ uint32(b)) * 16777619
	}
	h = (h ^ 0xff) * 16777619
	for _, b := range []byte(topCollection) {
		h = (h ^ uint32(b)) * 16777619
	}
	return int(h % slots)
}

// RangesForCollection returns the IDs of ranges that may own documents of
// a database's collection. Documents directly inside one collection share
// their top-level segment, so this is a single range.
func (c *Cache) RangesForCollection(db string, coll doc.CollectionPath) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return []int{c.ownerLocked(db, coll.Segments()[0]).id}
}

// splitHotRange rebalances load once: the range with the most
// subscriptions (above threshold) that owns at least two slots hands half
// of its slots to a newly created range. Affected subscribers are reset —
// the same fail-safe path used for out-of-sync ranges — and land on the
// new assignment when they resubscribe, exactly how ownership changes
// surface in the paper's design. It reports whether a split happened.
func (c *Cache) splitHotRange(threshold int) bool {
	c.mu.Lock()
	// Pick the hottest eligible range.
	var hot *nameRange
	hotSubs := threshold - 1
	slotsOf := map[int][]int{}
	for slot, rid := range c.assign {
		slotsOf[int(rid)] = append(slotsOf[int(rid)], slot)
	}
	for _, r := range c.ranges {
		if len(slotsOf[r.id]) < 2 {
			continue
		}
		r.mu.Lock()
		subs := len(r.subs)
		r.mu.Unlock()
		if subs > hotSubs {
			hot, hotSubs = r, subs
		}
	}
	if hot == nil {
		c.mu.Unlock()
		return false
	}
	fresh := newNameRange(len(c.ranges), c.met, c.kv)
	c.ranges = append(c.ranges, fresh)
	owned := slotsOf[hot.id]
	for _, slot := range owned[:len(owned)/2] {
		c.assign[slot] = int32(fresh.id)
	}
	c.mu.Unlock()
	// Annotate the Slicer decision: the hot range, the fresh range that
	// took half its slots, and the subscription load that triggered it.
	c.kv.Record(keyviz.EvRebalance, keyviz.Event{
		Source:     keyviz.SrcRange.String(),
		Shard:      uint64(hot.id),
		Peer:       uint64(fresh.id),
		HeatBefore: int64(hotSubs),
		HeatAfter:  int64(hotSubs) / 2,
		Detail:     fmt.Sprintf("%d of %d slots reassigned", len(owned)/2, len(owned)),
	})
	// The old range's subscriptions may now span reassigned slots; reset
	// them all (fast requery) so they re-subscribe under the new
	// ownership.
	hot.markOutOfSync()
	return true
}

// Rebalance runs one load-balancing pass, splitting the hottest range if
// it serves at least threshold subscriptions. Exposed for operators and
// tests; with Config.AutoSplitSubs it also runs on the heartbeat loop.
func (c *Cache) Rebalance(threshold int) bool { return c.splitHotRange(threshold) }

// write is the one record of a prepared write: what Prepare was told,
// the wall-clock deadline for its Accept, and the ranges it prepared on.
// It is immutable once Prepare returns, so ranges read it under their
// own lock.
type write struct {
	db       string
	maxTS    truetime.Timestamp // §IV-D2 step 5: the commit lands at or below it, if at all
	deadline time.Time
	ranges   []*nameRange
	one      [1]*nameRange // backs ranges for the usual single-range write
}

// Prepare begins the two-phase commit for writeID in database db touching
// names, with maximum commit timestamp maxTS. It returns the minimum
// allowed commit timestamp (the max of the per-range minimums, §IV-D2
// step 5).
func (c *Cache) Prepare(writeID, db string, names []doc.Name, maxTS truetime.Timestamp) (truetime.Timestamp, error) {
	w := &write{db: db, maxTS: maxTS, deadline: time.Now().Add(c.acceptMargin)}
	w.ranges = w.one[:0]
	c.mu.Lock()
	if _, dup := c.writes[writeID]; dup {
		c.mu.Unlock()
		return 0, status.Errorf(status.Internal, "rtcache", "duplicate write ID %q", writeID)
	}
	for _, n := range names {
		if r := c.ownerLocked(db, n.Segments()[0]); !slices.Contains(w.ranges, r) {
			w.ranges = append(w.ranges, r)
		}
	}
	c.writes[writeID] = w
	c.mu.Unlock()
	var minTS truetime.Timestamp
	for _, r := range w.ranges {
		minTS = max(minTS, r.prepare(w))
	}
	return minTS, nil
}

// Accept finishes the two-phase commit for writeID (§IV-D2 step 7). On
// success the mutations are matched and forwarded; on unknown outcome the
// affected ranges are marked out-of-sync.
func (c *Cache) Accept(ctx context.Context, writeID string, outcome Outcome, ts truetime.Timestamp, muts []Mutation) {
	// An injected drop loses the Accept at the cache boundary: the write
	// record stays pending, so the heartbeat loop expires it past the
	// accept margin and the affected ranges go out-of-sync — the paper's
	// recovery path for a Changelog that never learns an outcome.
	if fault.Decide(ctx, fault.RTCacheAccept).Kind == fault.KindDrop {
		return
	}
	c.mu.Lock()
	w := c.writes[writeID]
	delete(c.writes, writeID)
	c.mu.Unlock()
	if w == nil {
		return // already timed out; ranges were reset
	}
	switch outcome {
	case OutcomeFailure:
		for _, r := range w.ranges {
			r.resolve(w, nil, 0)
		}
	case OutcomeUnknown:
		for _, r := range w.ranges {
			r.markOutOfSync()
		}
	case OutcomeSuccess:
		c.forward(w, ts, muts)
	}
}

// forward hands a committed write's mutations to the ranges owning them
// under the CURRENT assignment.
func (c *Cache) forward(w *write, ts truetime.Timestamp, muts []Mutation) {
	routes := make([]*nameRange, len(muts))
	single := len(w.ranges) == 1
	c.mu.Lock()
	for i, m := range muts {
		routes[i] = c.ownerLocked(w.db, m.Name.Segments()[0])
		single = single && routes[i] == w.ranges[0]
	}
	c.mu.Unlock()
	if single {
		// The usual write: one range prepared, every mutation still routes
		// to it.
		w.ranges[0].resolve(w, muts, ts)
		return
	}
	for _, r := range w.ranges {
		var own []Mutation
		for i, m := range muts {
			if routes[i] == r {
				own = append(own, m)
			}
		}
		r.resolve(w, own, ts)
	}
	// Ownership may have been rebalanced between Prepare and Accept: a
	// mutation now routing to a range that never saw the Prepare cannot
	// be ordered there, so that range resets (its subscribers requery and
	// observe the write through their fresh initial snapshots).
	for i, r := range routes {
		if !slices.Contains(w.ranges, r) && !slices.Contains(routes[:i], r) {
			r.markOutOfSync()
		}
	}
}

// heartbeatLoop advances idle ranges' watermarks and times out prepares
// whose Accept never arrived.
func (c *Cache) heartbeatLoop(every time.Duration) {
	defer c.wg.Done()
	//fslint:ignore ctxdiscipline background daemon root: the heartbeat loop outlives any request
	ctx := context.Background()
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
		}
		// Injected heartbeat stall: the Changelog tasks skip this tick, so
		// watermarks stop advancing and overdue prepares are detected late.
		if fault.Decide(ctx, fault.RTCacheHeartbeat).Kind == fault.KindDrop {
			continue
		}
		// Injected Changelog crash: one range loses its in-memory state and
		// restarts. The victim is the busiest task — the one serving the
		// most subscriptions — because that is the crash that actually
		// hurts (and the adversarial choice a chaos run wants); an idle
		// cache rotates victims with the injection count instead.
		if fault.Decide(ctx, fault.RTCacheChangelogCrash).Kind == fault.KindCrash {
			c.mu.Lock()
			ranges := append([]*nameRange(nil), c.ranges...)
			c.mu.Unlock()
			victim, busiest := ranges[0], -1
			for _, r := range ranges {
				r.mu.Lock()
				subs := len(r.subs)
				r.mu.Unlock()
				if subs > busiest {
					victim, busiest = r, subs
				}
			}
			if busiest == 0 {
				victim = ranges[int((fault.Injected(fault.RTCacheChangelogCrash)-1)%int64(len(ranges)))]
			}
			victim.crash()
		}
		now := c.clock.Now().Earliest
		wall := time.Now()
		c.mu.Lock()
		ranges := append([]*nameRange(nil), c.ranges...)
		c.mu.Unlock()
		for _, r := range ranges {
			r.heartbeat(now, wall)
		}
		// Watermark lag: how far the slowest range trails TrueTime now —
		// the staleness bound listeners observe.
		var maxLag time.Duration
		for _, r := range ranges {
			r.mu.Lock()
			wm := r.watermark
			r.mu.Unlock()
			if wm == 0 {
				continue // never advanced: no listeners observed it yet
			}
			if lag := now.Sub(wm); lag > maxLag {
				maxLag = lag
			}
		}
		c.met.watermarkLag.Set(maxLag.Seconds())
		if c.autoSplitSubs > 0 {
			c.splitHotRange(c.autoSplitSubs)
		}
		// Drop the records of writes whose Accept never came: their ranges
		// expired them above (same wall reading) and reset.
		c.mu.Lock()
		for id, w := range c.writes {
			if wall.After(w.deadline) {
				delete(c.writes, id)
			}
		}
		c.mu.Unlock()
	}
}

// Stats reports cache counters for tests and monitoring.
type Stats struct {
	Subscriptions int
	OutOfSyncs    int64
	Forwarded     int64
}

// RangeInfo is one name range's state for /debug/listenz.
type RangeInfo struct {
	ID            int                `json:"id"`
	Slots         int                `json:"slots"`
	Subscriptions int                `json:"subscriptions"`
	Pending       int                `json:"pending_prepares"`
	Watermark     truetime.Timestamp `json:"watermark"`
	LastTS        truetime.Timestamp `json:"last_ts"`
	LogLen        int                `json:"log_len"`
	OutOfSyncs    int64              `json:"out_of_syncs"`
	Forwarded     int64              `json:"forwarded"`
}

// RangeStats reports per-range watermark, subscription, and changelog
// state, in range-ID order.
func (c *Cache) RangeStats() []RangeInfo {
	c.mu.Lock()
	ranges := append([]*nameRange(nil), c.ranges...)
	slotsOf := map[int]int{}
	for _, rid := range c.assign {
		slotsOf[int(rid)]++
	}
	c.mu.Unlock()
	out := make([]RangeInfo, 0, len(ranges))
	for _, r := range ranges {
		r.mu.Lock()
		out = append(out, RangeInfo{
			ID:            r.id,
			Slots:         slotsOf[r.id],
			Subscriptions: len(r.subs),
			Pending:       len(r.pending),
			Watermark:     r.watermark,
			LastTS:        r.lastTS,
			LogLen:        r.log.n,
			OutOfSyncs:    r.outOfSyncs,
			Forwarded:     r.forwarded,
		})
		r.mu.Unlock()
	}
	return out
}

// Stats aggregates across ranges.
func (c *Cache) Stats() Stats {
	var s Stats
	c.mu.Lock()
	ranges := append([]*nameRange(nil), c.ranges...)
	c.mu.Unlock()
	for _, r := range ranges {
		r.mu.Lock()
		s.Subscriptions += len(r.subs)
		s.OutOfSyncs += r.outOfSyncs
		s.Forwarded += r.forwarded
		r.mu.Unlock()
	}
	return s
}
