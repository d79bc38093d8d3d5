// Package frontend implements Firestore's Frontend tasks (§IV-D4): they
// hold the long-lived client connections over which real-time queries are
// registered, obtain each query's initial snapshot from a Backend,
// subscribe it to the Query Matcher range that owns its collection, and
// turn that range's update stream and watermarks into consistent,
// timestamped incremental snapshots. Queries multiplexed on
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
// timestamp (§III-C). The server owns the result's order: a client keeps
// its view as the events lay it out and compares no documents.
type SnapshotEvent struct {
	TargetID int64
	TS       truetime.Timestamp
	// Initial marks a snapshot of a built or rebuilt query: its Added
	// holds the whole result set, in the target's order, and replaces
	// whatever the client held for the target.
	Initial  bool
	Added    []*doc.Document
	Modified []*doc.Document
	Removed  []doc.Name
	// At holds, for a delta, the index each document of Added and then
	// of Modified takes in the target's new result: a client drops every
	// document the delta names and puts each listed one at its index.
	// Read it, never write it: it shares memory with other events'.
	At []int32
	// Err, when set, ends the target: its rebuild failed, and no event
	// of the target follows.
	Err error
}

// Conn is one client's long-lived connection. It implements
// rtcache.Subscriber; events are delivered on Events in registration
// order per query.
type Conn struct {
	f    *Frontend
	dbID string
	p    backend.Principal

	// ctx is the connection's lifecycle context: rebuilds run under it
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
	// marks holds the last subscriber watermark of each range, by range ID.
	marks map[int]truetime.Timestamp

	// touched is applyLocked's scratch: the documents one window of a
	// target changes, each with whether the client held it before.
	touched []touch
	// at is what is left of the slab deltas' positions are carved from;
	// a carved range is never written again, so a consumer may keep it.
	at []int32
}

type touch struct {
	name doc.Name
	was  bool
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
		marks:   map[int]truetime.Timestamp{},
	}
	// Rebuilds are connection-scoped background work, detached from any
	// single request's deadline, so the connection mints its own root.
	ctx := context.Background() //fslint:ignore ctxdiscipline connection-lifecycle root: rebuilds outlive the request that triggered them
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

	// results is the last emitted result set by name, whole documents
	// (only what is emitted is projected), and ordered the same documents
	// in q.Compare order, kept by binary search.
	results map[string]*doc.Document
	ordered []*doc.Document
	// maxCommitVersion: snapshots emitted so far reflect everything up
	// to this timestamp.
	maxCommitVersion truetime.Timestamp
	// pending buffers matched updates until the watermark passes them.
	pending []rtcache.Update
	// mark is the query's own watermark and rangeID its range, -1 until
	// the first arrives behind the replay: only from then on do that
	// range's subscriber watermarks (Conn.marks) cover the query.
	mark    truetime.Timestamp
	rangeID int
	// limited remembers whether the result filled the limit, at its build
	// or by an eviction since; then a member that leaves or falls past the
	// last place needs a rebuild (the matcher cannot know its replacement).
	limited bool
}

// resolvedLocked returns the timestamp up to which rq has certainly seen
// every update. Caller holds c.mu.
func (c *Conn) resolvedLocked(rq *rtQuery) truetime.Timestamp {
	return max(rq.mark, rq.maxCommitVersion, c.marks[rq.rangeID])
}

// put makes d (nil: none) the version of document key, in query order.
func (rq *rtQuery) put(key string, d *doc.Document) {
	if old, ok := rq.results[key]; ok {
		i, _ := slices.BinarySearchFunc(rq.ordered, old, rq.q.Compare)
		rq.ordered = slices.Delete(rq.ordered, i, i+1)
		delete(rq.results, key)
	}
	if d != nil {
		i, _ := slices.BinarySearchFunc(rq.ordered, d, rq.q.Compare)
		rq.ordered = slices.Insert(rq.ordered, i, d)
		rq.results[key] = d
	}
}

// position returns the index of member d in rq.ordered.
func (rq *rtQuery) position(d *doc.Document) int32 {
	i, _ := slices.BinarySearchFunc(rq.ordered, d, rq.q.Compare)
	return int32(i)
}

// project restricts ds in place to the query's projection.
func (rq *rtQuery) project(ds []*doc.Document) {
	if len(rq.q.Projection) > 0 {
		for i, d := range ds {
			ds[i] = rq.q.Project(d)
		}
	}
}

// Listen registers a real-time query (§IV-D4 steps 1-4) and returns the
// target ID identifying its events. The target is built the one way every
// target is (build): its first event is an Initial snapshot. A query with
// an offset is refused: a delta cannot tell which documents it skips.
func (c *Conn) Listen(ctx context.Context, q *query.Query) (_ int64, retErr error) {
	ctx, span := reqctx.StartSpan(ctx, "frontend.listen")
	defer func() { span.End(retErr) }()
	if q.Offset > 0 {
		return 0, status.New(status.InvalidArgument, "frontend", "a real-time query cannot have an offset: a delta cannot tell which documents it skips")
	}
	rq := &rtQuery{targetID: c.f.targets.Add(1), q: q}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, ErrConnClosed
	}
	c.targets[rq.targetID] = rq
	c.f.active.Add(1)
	c.mu.Unlock()
	if err := c.build(ctx, rq); err != nil {
		c.StopListening(rq.targetID)
		return 0, err
	}
	c.f.listens.With(c.dbID).Inc()
	return rq.targetID, nil
}

// StopListening unregisters a query.
func (c *Conn) StopListening(targetID int64) {
	c.mu.Lock()
	rq, ok := c.targets[targetID]
	if ok {
		c.forgetLocked(rq)
	}
	c.mu.Unlock()
	if ok {
		c.f.cache.Unsubscribe(c, rq.subID)
	}
}

// forgetLocked removes rq from the connection. Caller holds c.mu.
func (c *Conn) forgetLocked(rq *rtQuery) {
	delete(c.targets, rq.targetID)
	delete(c.queries, rq.subID)
	c.f.active.Add(-1)
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

// deliverLocked puts ev on the connection without blocking. Caller holds
// c.mu, so events leave in the order the connection's state changed: a
// delta never overtakes an older one or its target's Initial snapshot.
// A false return means the client has NOT seen ev (the buffer is full,
// or an injected drop lost it mid-stream): the caller rebuilds the
// target, since a delta stream with a hole in it is worse than a reset
// ("this reset is fast, and is mostly transparent to the end-user").
func (c *Conn) deliverLocked(ev SnapshotEvent) bool {
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

// build (re)builds rq from scratch: it runs rq's query on a Backend,
// replaces rq's state with the result, delivers that result as one
// Initial snapshot (step 3) and subscribes rq to the Query Matcher range
// at the query's read timestamp (step 4). Listen builds a target; a range
// reset, a late update, a limit query losing a member and a dropped
// event all rebuild it (scheduleRebuild). A result of more than one page
// follows the page tokens, which hold its snapshot and its limit, and is
// read without projection: the target orders and evicts by fields it may
// drop, and projects what it emits. It fails if the query does, or if rq
// stopped or the connection closed meanwhile.
func (c *Conn) build(ctx context.Context, rq *rtQuery) error {
	whole := *rq.q
	whole.Projection = nil
	res, readTS, err := c.f.backend.RunQuery(ctx, c.dbID, c.p, &whole, nil, 0)
	if err != nil {
		return err
	}
	docs, limit := res.Docs, rq.q.Limit
	for res.Resume != nil {
		if res, _, err = c.f.backend.RunQuery(ctx, c.dbID, c.p, &whole, res.Resume, 0); err != nil {
			return err
		}
		docs = append(docs, res.Docs...)
	}
	// The subscription ID is reserved and rq registered under it before
	// the Query Matcher sees it, so a write matched right after
	// registration cannot reach an unknown subscription and be dropped.
	subID := c.f.cache.ReserveSub()
	c.mu.Lock()
	if c.targets[rq.targetID] != rq {
		c.mu.Unlock()
		return ErrConnClosed
	}
	rq.results = make(map[string]*doc.Document, len(docs))
	for _, d := range docs {
		rq.results[d.Name.String()] = d
	}
	slices.SortFunc(docs, rq.q.Compare)
	rq.ordered = slices.Clone(docs)
	rq.maxCommitVersion = readTS
	rq.pending, rq.mark, rq.rangeID = nil, 0, -1
	rq.limited = limit > 0 && len(docs) == limit
	rq.project(docs)
	// The result in the target's order, the one every later delta's
	// positions refer to, before rq can receive anything: no delta of rq
	// precedes it on the connection.
	if !c.deliverLocked(SnapshotEvent{TargetID: rq.targetID, TS: readTS, Initial: true, Added: docs}) {
		c.scheduleRebuild(rq)
		c.mu.Unlock()
		return nil
	}
	rq.subID = subID
	c.queries[subID] = rq
	c.mu.Unlock()

	c.f.cache.Subscribe(c, c.dbID, rq.q, readTS, subID)
	c.mu.Lock()
	live := c.queries[subID] == rq
	c.mu.Unlock()
	if !live {
		// Stopped, closed or reset while subscribing: whoever removed rq
		// may have unsubscribed before Subscribe had registered it.
		c.f.cache.Unsubscribe(c, subID)
	}
	return nil
}

// OnUpdate implements rtcache.Subscriber.
func (c *Conn) OnUpdate(rangeID int, subID int64, u rtcache.Update) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rq, ok := c.queries[subID]; ok {
		rq.pending = append(rq.pending, u)
	}
}

// OnWatermark implements rtcache.Subscriber: watermark advances drive
// snapshot emission. A subscriber watermark (subID 0) moves the range's
// mark, which counts for each query past its own first watermark there.
func (c *Conn) OnWatermark(rangeID int, subID int64, ts truetime.Timestamp) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if subID == 0 {
		c.marks[rangeID] = max(c.marks[rangeID], ts)
	} else if rq, ok := c.queries[subID]; ok {
		rq.mark, rq.rangeID = max(rq.mark, ts), rangeID
	} else {
		return
	}
	c.flushLocked()
}

// flushLocked delivers snapshots for every query that can advance to the
// connection-consistent timestamp: min over all queries' resolved
// timestamps ("queries on the same connection are only updated to a
// timestamp t once all queries' max-commit-version has reached at least
// t"). A query whose delta is dropped, or that cannot be updated by a
// delta, is rebuilt.
func (c *Conn) flushLocked() {
	connTS := truetime.Max
	for _, rq := range c.queries {
		connTS = min(connTS, c.resolvedLocked(rq))
	}
	for _, rq := range c.queries {
		if connTS <= rq.maxCommitVersion {
			continue
		}
		if len(rq.pending) == 0 {
			rq.maxCommitVersion = connTS // idle: nothing to apply, nothing to emit
			continue
		}
		ev, emit, reset := c.applyLocked(rq, connTS)
		if reset || emit && !c.deliverLocked(ev) {
			c.scheduleRebuild(rq)
		}
	}
}

// applyLocked applies rq's pending updates with TS <= connTS and builds
// the delta snapshot, if any (emit): Added and Modified in query order
// with their positions in rq.ordered, Removed in name order, and nothing
// else allocated but a slab of positions now and then. reset reports that
// the query needs a rebuild: a limited query lost a member or one fell
// past its last place, or an update arrived late.
func (c *Conn) applyLocked(rq *rtQuery, connTS truetime.Timestamp) (ev SnapshotEvent, emit, reset bool) {
	// Pending updates can arrive out of timestamp order even though the
	// range delivers in the order its lock produced them: Accepts of
	// concurrent writes reach it in Accept order, not commit order (only
	// the watermark promises "everything at or below has been sent").
	// Apply in commit order or an older delete could clobber a newer set.
	slices.SortStableFunc(rq.pending, func(a, b rtcache.Update) int { return cmp.Compare(a.TS, b.TS) })
	// touched records each touched document's membership at the window
	// start so the snapshot carries the NET change per document: a
	// delete-then-set of the same document within one window must emit a
	// single Modified entry, not a Removed and an Added whose relative
	// order the consumer cannot know.
	touched, window := c.touched[:0], rq.pending
	for i, u := range rq.pending {
		if u.TS > connTS {
			window = rq.pending[:i]
			break
		}
		if u.TS <= rq.maxCommitVersion {
			// The rtcache delivery contract rules this out: replay and
			// live matching only send TS > the subscription's afterTS, and
			// a watermark never overtakes an update it covers. Reaching it
			// means that contract broke upstream; count it and rebuild
			// rather than dropping the document silently.
			c.f.lateUpdates.With(c.dbID).Inc()
			return ev, false, true
		}
		_, was := rq.results[u.Name.String()]
		touched = append(touched, touch{name: u.Name, was: was})
	}
	for _, u := range window {
		key := u.Name.String()
		if _, have := rq.results[key]; have && rq.limited && (!u.Matches || rq.q.Compare(u.New, rq.ordered[rq.q.Limit-1]) > 0) {
			// A member left a limit query or fell past its last place: the
			// document to take its place is unknown here; rebuild.
			return ev, false, true
		}
		rq.put(key, u.New)
	}
	rq.pending = slices.Delete(rq.pending, 0, len(window))
	rq.maxCommitVersion = connTS
	byName := func(a, b touch) int { return a.name.Compare(b.name) }
	slices.SortFunc(touched, byName)
	touched = slices.CompactFunc(touched, func(a, b touch) bool { return a.name == b.name })
	// Limit overflow: adding beyond the limit evicts the worst-ranked
	// members, and the result is full from then on: a member that leaves
	// later must rebuild it to bring an evicted document back. An evicted
	// document this window did not touch is one the client holds.
	if lim := rq.q.Limit; lim > 0 && len(rq.ordered) > lim {
		rq.limited = true
		for _, d := range rq.ordered[lim:] {
			delete(rq.results, d.Name.String())
			if _, hit := slices.BinarySearchFunc(touched, touch{name: d.Name}, byName); !hit {
				ev.Removed = append(ev.Removed, d.Name)
			}
		}
		clear(rq.ordered[lim:])
		rq.ordered = rq.ordered[:lim]
	}
	for _, t := range touched {
		switch cur, have := rq.results[t.name.String()]; {
		case have && !t.was:
			ev.Added = append(ev.Added, cur)
		case have:
			ev.Modified = append(ev.Modified, cur)
		case t.was:
			ev.Removed = append(ev.Removed, t.name)
		}
	}
	clear(touched)
	c.touched = touched[:0]
	if len(ev.Added)+len(ev.Modified)+len(ev.Removed) == 0 {
		return ev, false, false
	}
	slices.SortFunc(ev.Added, rq.q.Compare)
	slices.SortFunc(ev.Modified, rq.q.Compare)
	slices.SortFunc(ev.Removed, doc.Name.Compare)
	ev.At = c.carveLocked(len(ev.Added) + len(ev.Modified))
	for i, d := range ev.Added {
		ev.At[i] = rq.position(d)
	}
	for i, d := range ev.Modified {
		ev.At[len(ev.Added)+i] = rq.position(d)
	}
	rq.project(ev.Added)
	rq.project(ev.Modified)
	ev.TargetID, ev.TS = rq.targetID, connTS
	return ev, true, false
}

// carveLocked returns n positions no event holds, from a slab of 512
// allocated when the last is spent. Caller holds c.mu.
func (c *Conn) carveLocked(n int) []int32 {
	if len(c.at) < n {
		c.at = make([]int32, max(n, 512))
	}
	at := c.at[:n:n]
	c.at = c.at[n:]
	return at
}

// OnReset implements rtcache.Subscriber: the range went out-of-sync, so
// the query is rebuilt ("this reset is fast, and is mostly transparent to
// the end-user").
func (c *Conn) OnReset(rangeID int, subID int64) {
	c.mu.Lock()
	if rq, ok := c.queries[subID]; ok {
		c.scheduleRebuild(rq)
	}
	c.mu.Unlock()
}

// scheduleRebuild takes rq off its subscription, if it has one, and
// builds it again on another goroutine (the cache forbids synchronous
// re-entry from callbacks). Caller holds c.mu. The client hears nothing
// more of rq until the rebuilt Initial snapshot, or until the event that
// ends rq if the rebuild fails.
func (c *Conn) scheduleRebuild(rq *rtQuery) {
	c.f.requeries.With(c.dbID).Inc()
	delete(c.queries, rq.subID)
	rq.pending = nil
	oldSub := rq.subID
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.f.cache.Unsubscribe(c, oldSub)
		// A snapshot dropped for a full buffer would be dropped again, and
		// one read at or below the range's horizon would be reset again:
		// wait, on the region clock, until the client has drained some and
		// TrueTime has passed the horizon.
		clock, horizon := c.f.cache.Clock(), c.f.cache.Horizon(c.dbID, rq.q)
		for (len(c.events) == cap(c.events) || !clock.After(horizon)) && c.ctx.Err() == nil {
			clock.Sleep(time.Millisecond)
		}
		if err := c.build(c.ctx, rq); err != nil {
			c.end(rq, err)
		}
	}()
}

// end removes rq, whose rebuild failed, and sends the client an event
// carrying the error. It waits for buffer room rather than drop it:
// nothing else of rq follows, so it cannot overtake anything.
func (c *Conn) end(rq *rtQuery, err error) {
	c.mu.Lock()
	live := c.targets[rq.targetID] == rq
	if live {
		c.forgetLocked(rq)
	}
	c.mu.Unlock()
	if !live {
		return // stopped, or the connection closed
	}
	select {
	case c.events <- SnapshotEvent{TargetID: rq.targetID, Err: err}:
	case <-c.ctx.Done():
	}
}
