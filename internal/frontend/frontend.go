// Package frontend implements Firestore's Frontend tasks (§IV-D4): they
// hold the long-lived client connections over which real-time queries are
// registered, obtain each query's initial snapshot from a Backend,
// subscribe to the Query Matcher tasks covering the query's result set,
// and assemble the per-range update streams and watermarks into
// consistent, timestamped incremental snapshots. Queries multiplexed on
// one connection advance to a timestamp t only once every query on the
// connection can reach t, so an end-user never sees mutually inconsistent
// result sets.
package frontend

import (
	"cmp"
	"context"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"firestore/internal/backend"
	"firestore/internal/doc"
	"firestore/internal/fault"
	"firestore/internal/obs"
	"firestore/internal/query"
	"firestore/internal/reqctx"
	"firestore/internal/rtcache"
	"firestore/internal/status"
	"firestore/internal/truetime"
)

// ErrConnClosed reports use of a closed connection.
var ErrConnClosed = status.New(status.Unavailable, "frontend", "connection closed")

// Frontend is a pool of frontend tasks (modeled as one object; the task
// count only matters for the autoscaling experiments, which model it in
// the harness).
type Frontend struct {
	backend *backend.Backend
	cache   *rtcache.Cache
	targets atomic.Int64
	active  atomic.Int64 // live real-time targets

	// Per-database delivery counters, {db}.
	listens, delivered, dropped, lateUpdates, requeries *obs.CounterVec

	mu    sync.Mutex
	conns map[*Conn]struct{}
}

// New creates a Frontend over a Backend and the Real-time Cache,
// declaring its instruments in reg (nil means a private registry):
// connection/target gauges plus per-database delivery, drop, and requery
// counters.
func New(b *backend.Backend, cache *rtcache.Cache, reg *obs.Registry) *Frontend {
	reg = obs.OrNew(reg)
	f := &Frontend{
		backend: b, cache: cache, conns: map[*Conn]struct{}{},
		listens:     reg.CounterVec("frontend.listens", "db"),
		delivered:   reg.CounterVec("frontend.events_delivered", "db"),
		dropped:     reg.CounterVec("frontend.events_dropped", "db"),
		lateUpdates: reg.CounterVec("frontend.late_updates", "db"),
		requeries:   reg.CounterVec("frontend.requeries", "db"),
	}
	reg.GaugeFunc("frontend.connections", nil, func() float64 {
		f.mu.Lock()
		defer f.mu.Unlock()
		return float64(len(f.conns))
	})
	reg.GaugeFunc("frontend.targets", nil, func() float64 {
		return float64(f.active.Load())
	})
	return f
}

// ConnInfo is one connection's state in a ConnStats snapshot
// (/debug/listenz).
type ConnInfo struct {
	DB       string `json:"db"`
	Queries  int    `json:"queries"`
	Targets  int    `json:"targets"`
	Buffered int    `json:"buffered_events"`
}

// ConnStats reports every open connection, busiest first.
func (f *Frontend) ConnStats() []ConnInfo {
	f.mu.Lock()
	conns := make([]*Conn, 0, len(f.conns))
	for c := range f.conns {
		conns = append(conns, c)
	}
	f.mu.Unlock()
	out := make([]ConnInfo, 0, len(conns))
	for _, c := range conns {
		c.mu.Lock()
		out = append(out, ConnInfo{
			DB:       c.dbID,
			Queries:  len(c.queries),
			Targets:  len(c.targets),
			Buffered: len(c.events),
		})
		c.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Targets != out[j].Targets {
			return out[i].Targets > out[j].Targets
		}
		return out[i].DB < out[j].DB
	})
	return out
}

// SnapshotEvent is one incremental snapshot delivered to the client: the
// delta from the previous snapshot of the target query, at a consistent
// timestamp (§III-C).
type SnapshotEvent struct {
	TargetID int64
	TS       truetime.Timestamp
	// Initial marks the first snapshot of a (re-)registered query; its
	// Added holds the full result set.
	Initial  bool
	Added    []*doc.Document
	Modified []*doc.Document
	Removed  []doc.Name
}

// Conn is one client's long-lived connection. It implements
// rtcache.Subscriber; events are delivered on Events in registration
// order per query.
type Conn struct {
	f    *Frontend
	dbID string
	p    backend.Principal

	// ctx is the connection's lifecycle context: requeries run under it
	// (carrying the db label for metrics) and abort when the connection
	// closes.
	ctx    context.Context
	cancel context.CancelFunc

	events chan SnapshotEvent

	mu      sync.Mutex
	queries map[int64]*rtQuery // by subscription ID
	targets map[int64]*rtQuery // by target ID
	closed  bool
	wg      sync.WaitGroup

	// connTS is the connection-consistent timestamp found by the last
	// flushLocked scan (min over queries of resolved()) and holders how
	// many queries still sit exactly there. While holders > 0 connTS
	// cannot have moved, so a watermark for any other query is O(1); a
	// heartbeat over Q idle queries costs one O(Q) scan, on the tick's
	// last watermark. Anything that changes the set of queries or lowers
	// a query's resolved() zeroes holders to force a rescan.
	connTS  truetime.Timestamp
	holders int
}

// eventBuffer bounds in-flight snapshots per connection.
const eventBuffer = 1024

// NewConn opens a connection for one client to one database.
func (f *Frontend) NewConn(dbID string, p backend.Principal) *Conn {
	c := &Conn{
		f:       f,
		dbID:    dbID,
		p:       p,
		events:  make(chan SnapshotEvent, eventBuffer),
		queries: map[int64]*rtQuery{},
		targets: map[int64]*rtQuery{},
	}
	// Requeries are connection-scoped background work, detached from any
	// single request's deadline, so the connection mints its own root.
	ctx := context.Background() //fslint:ignore ctxdiscipline connection-lifecycle root: requeries outlive the request that triggered them
	c.ctx, c.cancel = context.WithCancel(reqctx.With(ctx, reqctx.Meta{DB: dbID}))
	f.mu.Lock()
	f.conns[c] = struct{}{}
	f.mu.Unlock()
	return c
}

// Events is the stream of incremental snapshots for all queries on the
// connection.
func (c *Conn) Events() <-chan SnapshotEvent { return c.events }

// rtQuery is the Frontend-side state of one registered real-time query.
type rtQuery struct {
	targetID int64
	q        *query.Query
	subID    int64
	rangeIDs []int

	// results is the last emitted result set, keyed by document name.
	results map[string]*doc.Document
	// maxCommitVersion: snapshots emitted so far reflect everything up
	// to this timestamp.
	maxCommitVersion truetime.Timestamp
	// pending buffers matched updates until the watermark passes them.
	pending []rtcache.Update
	// watermarks per subscribed range.
	watermarks map[int]truetime.Timestamp
	// limited remembers whether the initial result filled the limit, in
	// which case evictions require a requery (the matcher cannot know
	// the replacement document).
	limited bool
	// resetting suppresses updates while a requery is in flight.
	resetting bool
}

// resolved returns the timestamp up to which this query has certainly
// seen every update.
func (rq *rtQuery) resolved() truetime.Timestamp {
	min := truetime.Max
	for _, rid := range rq.rangeIDs {
		w := rq.watermarks[rid]
		if w < min {
			min = w
		}
	}
	if min == truetime.Max {
		return rq.maxCommitVersion
	}
	if min < rq.maxCommitVersion {
		return rq.maxCommitVersion
	}
	return min
}

// Listen registers a real-time query (§IV-D4 steps 1-4): runs the initial
// query on a Backend, emits the initial snapshot, and subscribes to the
// Query Matcher ranges with the snapshot's max-commit-version. It returns
// the target ID identifying the query's events.
func (c *Conn) Listen(ctx context.Context, q *query.Query) (_ int64, retErr error) {
	ctx, end := reqctx.StartSpan(ctx, "frontend.listen")
	defer func() { end(retErr) }()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, ErrConnClosed
	}
	c.mu.Unlock()

	res, readTS, err := c.f.backend.RunQuery(ctx, c.dbID, c.p, q, nil, 0)
	if err != nil {
		return 0, err
	}
	targetID := c.f.targets.Add(1)
	rq := &rtQuery{
		targetID:         targetID,
		q:                q,
		results:          map[string]*doc.Document{},
		maxCommitVersion: readTS,
		watermarks:       map[int]truetime.Timestamp{},
		limited:          q.Limit > 0 && len(res.Docs) == q.Limit,
	}
	for _, d := range res.Docs {
		rq.results[d.Name.String()] = d
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, ErrConnClosed
	}
	c.targets[targetID] = rq
	c.f.active.Add(1)
	c.mu.Unlock()
	c.f.listens.With(c.dbID).Inc()

	// Initial snapshot (step 3): the query's result, in the order the
	// query returned it.
	delivered := c.deliver(SnapshotEvent{
		TargetID: targetID,
		TS:       readTS,
		Initial:  true,
		Added:    res.Docs,
	})

	// Subscribe (step 4). The subscription ID is reserved and the query
	// state registered under it BEFORE the Query Matcher sees it, so a
	// concurrent write matched immediately after registration cannot be
	// delivered to an unknown subscription and dropped.
	subID := c.f.cache.ReserveSub()
	c.mu.Lock()
	rq.subID = subID
	c.queries[subID] = rq
	c.holders = 0
	c.mu.Unlock()
	_, rangeIDs := c.f.cache.Subscribe(c, c.dbID, q, readTS, subID)
	c.mu.Lock()
	rq.rangeIDs = rangeIDs
	c.holders = 0
	if !delivered && !rq.resetting {
		// The initial snapshot never reached the client: the query is
		// out-of-sync from birth; reset and requery with a full snapshot.
		c.scheduleRequery(rq, true)
	}
	c.mu.Unlock()
	return targetID, nil
}

// StopListening unregisters a query.
func (c *Conn) StopListening(targetID int64) {
	c.mu.Lock()
	rq, ok := c.targets[targetID]
	if ok {
		delete(c.targets, targetID)
		delete(c.queries, rq.subID)
		c.holders = 0
		c.f.active.Add(-1)
	}
	c.mu.Unlock()
	if ok {
		c.f.cache.Unsubscribe(c, rq.subID)
	}
}

// Close shuts the connection and its subscriptions down.
func (c *Conn) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.cancel()
	subs := make([]int64, 0, len(c.queries))
	for id := range c.queries {
		subs = append(subs, id)
	}
	c.f.active.Add(-int64(len(c.targets)))
	c.queries = map[int64]*rtQuery{}
	c.targets = map[int64]*rtQuery{}
	c.mu.Unlock()
	c.f.mu.Lock()
	delete(c.f.conns, c)
	c.f.mu.Unlock()
	for _, id := range subs {
		c.f.cache.Unsubscribe(c, id)
	}
	c.wg.Wait()
	close(c.events)
}

// deliver attempts non-blocking delivery of ev. A false return means the
// per-connection buffer is full; the caller must treat the query as
// out-of-sync (the client has NOT seen ev) and recover via a full
// reset-and-requery — a delta stream with a hole in it is worse than a
// reset ("this reset is fast, and is mostly transparent to the end-user").
func (c *Conn) deliver(ev SnapshotEvent) bool {
	// An injected drop models the connection losing this snapshot
	// mid-stream; the caller's recovery is the same reset-and-requery
	// path a full buffer takes.
	if fault.Decide(c.ctx, fault.FrontendConnDeliver).Kind == fault.KindDrop {
		c.f.dropped.With(c.dbID).Inc()
		return false
	}
	select {
	case c.events <- ev:
		c.f.delivered.With(c.dbID).Inc()
		return true
	default:
		c.f.dropped.With(c.dbID).Inc()
		return false
	}
}

// emitInitial delivers a full Initial snapshot of rq's current result
// set, retrying until buffer space frees up or the connection closes.
// Used to recover a query whose delta stream lost an event: the client's
// state is unknown, so only a full snapshot can resynchronize it.
func (c *Conn) emitInitial(rq *rtQuery, ts truetime.Timestamp) {
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return
		}
		ev := SnapshotEvent{
			TargetID: rq.targetID,
			TS:       ts,
			Initial:  true,
			Added:    sortedDocs(rq.q, rq.results),
		}
		c.mu.Unlock()
		if c.deliver(ev) {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// OnUpdate implements rtcache.Subscriber.
func (c *Conn) OnUpdate(rangeID int, subID int64, u rtcache.Update) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rq, ok := c.queries[subID]
	if !ok || rq.resetting {
		return
	}
	rq.pending = append(rq.pending, u)
}

// OnWatermark implements rtcache.Subscriber: watermark advances drive
// snapshot emission.
func (c *Conn) OnWatermark(rangeID int, subID int64, ts truetime.Timestamp) {
	c.mu.Lock()
	rq, ok := c.queries[subID]
	if !ok || rq.resetting {
		c.mu.Unlock()
		return
	}
	was := rq.resolved()
	if ts > rq.watermarks[rangeID] {
		rq.watermarks[rangeID] = ts
	}
	if c.holders > 0 {
		// The last scan is still valid: connTS moves only once every
		// query that sat on it has advanced.
		if was <= c.connTS && rq.resolved() > c.connTS {
			c.holders--
		}
		if c.holders > 0 {
			c.mu.Unlock()
			return
		}
	}
	events := c.flushLocked()
	c.mu.Unlock()
	var lost []int64
	for _, ev := range events {
		if !c.deliver(ev) {
			lost = append(lost, ev.TargetID)
		}
	}
	if len(lost) == 0 {
		return
	}
	// A delta was dropped: the client's view of those targets is now
	// behind rq.results with no way to catch up incrementally. Mark them
	// out-of-sync and recover with a full reset-and-requery.
	c.mu.Lock()
	for _, tid := range lost {
		if rq, ok := c.targets[tid]; ok && !rq.resetting {
			c.scheduleRequery(rq, true)
		}
	}
	c.mu.Unlock()
}

// flushLocked emits snapshots for every query that can advance to the
// connection-consistent timestamp: min over all queries' resolved
// timestamps ("queries on the same connection are only updated to a
// timestamp t once all queries' max-commit-version has reached at least
// t").
func (c *Conn) flushLocked() []SnapshotEvent {
	c.connTS, c.holders = truetime.Max, 0
	for _, rq := range c.queries {
		switch r := rq.resolved(); {
		case r < c.connTS:
			c.connTS, c.holders = r, 1
		case r == c.connTS:
			c.holders++
		}
	}
	connTS := c.connTS
	var events []SnapshotEvent
	for _, rq := range c.queries {
		if rq.resetting || connTS <= rq.maxCommitVersion {
			continue
		}
		if len(rq.pending) == 0 {
			rq.maxCommitVersion = connTS // idle: nothing to apply, nothing to emit
			continue
		}
		ev, needsReset := c.applyLocked(rq, connTS)
		if needsReset {
			c.scheduleRequery(rq, false)
			continue
		}
		if ev != nil {
			events = append(events, *ev)
		}
	}
	return events
}

// applyLocked applies rq's pending updates with TS <= connTS and builds
// the delta snapshot. It reports whether the query needs a requery: a
// limited query lost a member, or an update arrived late.
func (c *Conn) applyLocked(rq *rtQuery, connTS truetime.Timestamp) (*SnapshotEvent, bool) {
	// Pending updates can arrive out of timestamp order even though each
	// range delivers in the order its lock produced them: Accepts of
	// concurrent writes reach a range in Accept order, not commit order
	// (only the watermark promises "everything at or below has been
	// sent"), and a query spanning several ranges interleaves their
	// streams. Apply in commit order or an older delete could clobber a
	// newer set.
	slices.SortStableFunc(rq.pending, func(a, b rtcache.Update) int { return cmp.Compare(a.TS, b.TS) })
	var rest []rtcache.Update
	// before records each touched document's membership at the window
	// start so the snapshot carries the NET change per document: a
	// delete-then-set of the same document within one window must emit a
	// single Modified entry, not a Removed and an Added whose relative
	// order the consumer cannot know.
	type membership struct {
		name doc.Name
		was  bool
	}
	before := map[string]membership{}
	for _, u := range rq.pending {
		if u.TS > connTS {
			rest = append(rest, u)
			continue
		}
		if u.TS <= rq.maxCommitVersion {
			// The rtcache delivery contract rules this out: replay and
			// live matching only send TS > the subscription's afterTS, and
			// a watermark never overtakes an update it covers. Reaching it
			// means that contract broke upstream; count it and recover by
			// requery rather than dropping the document silently.
			c.f.lateUpdates.With(c.dbID).Inc()
			return nil, true
		}
		key := u.Name.String()
		_, have := rq.results[key]
		if _, seen := before[key]; !seen {
			before[key] = membership{name: u.Name, was: have}
		}
		switch {
		case u.Matches:
			rq.results[key] = u.New
		case have:
			if rq.limited {
				// A member left a limit query: the replacement is
				// unknown here; redo the initial query (fast reset).
				return nil, true
			}
			delete(rq.results, key)
		}
	}
	rq.pending = rest
	rq.maxCommitVersion = connTS
	var added, modified []*doc.Document
	var removed []doc.Name
	for key, m := range before {
		cur, have := rq.results[key]
		switch {
		case have && !m.was:
			added = append(added, cur)
		case have && m.was:
			modified = append(modified, cur)
		case !have && m.was:
			removed = append(removed, m.name)
		}
	}
	if len(added)+len(modified)+len(removed) == 0 {
		return nil, false
	}
	// Limit overflow: adding beyond the limit evicts the worst-ranked
	// members.
	if rq.q.Limit > 0 && len(rq.results) > rq.q.Limit {
		ordered := sortedDocs(rq.q, rq.results)
		for _, d := range ordered[rq.q.Limit:] {
			key := d.Name.String()
			delete(rq.results, key)
			removed = append(removed, d.Name)
			// If it was just added in this snapshot, cancel that out.
			added = dropDoc(added, key)
			modified = dropDoc(modified, key)
		}
	}
	return &SnapshotEvent{
		TargetID: rq.targetID,
		TS:       connTS,
		Added:    added,
		Modified: modified,
		Removed:  removed,
	}, false
}

func dropDoc(ds []*doc.Document, key string) []*doc.Document {
	out := ds[:0]
	for _, d := range ds {
		if d.Name.String() != key {
			out = append(out, d)
		}
	}
	return out
}

// OnReset implements rtcache.Subscriber: the range went out-of-sync; drop
// accumulated state and redo the initial query ("this reset is fast, and
// is mostly transparent to the end-user").
func (c *Conn) OnReset(rangeID int, subID int64) {
	c.mu.Lock()
	rq, ok := c.queries[subID]
	if ok && !rq.resetting {
		c.scheduleRequery(rq, false)
	}
	c.mu.Unlock()
}

// scheduleRequery re-runs rq's initial query asynchronously (the cache
// forbids synchronous re-entry from callbacks). Caller holds c.mu. When
// full is true the client's state is unknown (a snapshot was dropped) and
// the requery re-emits a full Initial snapshot instead of a delta.
func (c *Conn) scheduleRequery(rq *rtQuery, full bool) {
	c.f.requeries.With(c.dbID).Inc()
	rq.resetting = true
	rq.pending = nil
	delete(c.queries, rq.subID)
	c.holders = 0
	oldSub := rq.subID
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.f.cache.Unsubscribe(c, oldSub)
		c.requery(rq, full)
	}()
}

func (c *Conn) requery(rq *rtQuery, full bool) {
	res, readTS, err := c.f.backend.RunQuery(c.ctx, c.dbID, c.p, rq.q, nil, 0)
	if err != nil {
		// Backend unavailable: retry is the client SDK's job; surface a
		// terminal removal of the target.
		c.mu.Lock()
		if _, ok := c.targets[rq.targetID]; ok {
			delete(c.targets, rq.targetID)
			c.f.active.Add(-1)
		}
		c.mu.Unlock()
		return
	}
	fresh := map[string]*doc.Document{}
	for _, d := range res.Docs {
		fresh[d.Name.String()] = d
	}
	// Delta between the last emitted state and the fresh result (unused
	// when the client's state is unknown and a full snapshot goes out).
	var added, modified []*doc.Document
	var removed []doc.Name
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	if !full {
		for key, d := range fresh {
			old, ok := rq.results[key]
			switch {
			case !ok:
				added = append(added, d)
			case !old.Equal(d) || old.UpdateTime != d.UpdateTime:
				modified = append(modified, d)
			}
		}
		for key, d := range rq.results {
			if _, ok := fresh[key]; !ok {
				removed = append(removed, d.Name)
			}
		}
	}
	rq.results = fresh
	rq.maxCommitVersion = readTS
	rq.watermarks = map[int]truetime.Timestamp{}
	rq.limited = rq.q.Limit > 0 && len(res.Docs) == rq.q.Limit
	c.mu.Unlock()

	// Emit before resubscribing, while rq.resetting still suppresses
	// updates: no delta from the new subscription can overtake this
	// snapshot in the event stream.
	if full {
		c.emitInitial(rq, readTS)
	} else if len(added)+len(modified)+len(removed) > 0 {
		if !c.deliver(SnapshotEvent{
			TargetID: rq.targetID,
			TS:       readTS,
			Added:    added,
			Modified: modified,
			Removed:  removed,
		}) {
			// The catch-up delta itself was dropped; only a full snapshot
			// can resynchronize the client now.
			c.emitInitial(rq, readTS)
		}
	}

	subID := c.f.cache.ReserveSub()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	rq.subID = subID
	rq.rangeIDs = nil
	rq.resetting = false
	c.queries[subID] = rq
	c.holders = 0
	c.mu.Unlock()
	_, rangeIDs := c.f.cache.Subscribe(c, c.dbID, rq.q, readTS, subID)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.f.cache.Unsubscribe(c, subID)
		return
	}
	rq.rangeIDs = rangeIDs
	c.holders = 0
	c.mu.Unlock()
}

// sortedDocs returns the result set in query order.
func sortedDocs(q *query.Query, m map[string]*doc.Document) []*doc.Document {
	out := make([]*doc.Document, 0, len(m))
	for _, d := range m {
		out = append(out, d)
	}
	slices.SortFunc(out, q.Compare)
	return out
}
