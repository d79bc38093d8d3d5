// Package mobile is the Mobile and Web SDK (§III-E, §IV-E): the client
// library for code running on end-user devices. It maintains a local
// cache of the documents the client has seen, acknowledges mutations
// immediately against that cache (latency compensation) while flushing
// them to the service asynchronously, serves queries and snapshot
// listeners from the local cache while disconnected, and reconciles
// automatically on reconnection. Blind writes follow last-update-wins;
// transactions use optimistic concurrency with commit-time revalidation
// and are available only while connected.
//
// Every operation served purely by the local cache is free; only traffic
// that reaches the service is billed (§IV-E).
package mobile

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"firestore/internal/backend"
	"firestore/internal/core"
	"firestore/internal/doc"
	"firestore/internal/frontend"
	"firestore/internal/query"
	"firestore/internal/rules"
	"firestore/internal/status"
	"firestore/internal/truetime"
)

// ErrOffline reports an operation that requires connectivity (e.g. a
// transaction) attempted while disconnected.
var ErrOffline = status.New(status.Unavailable, "mobile", "client is offline")

// Remote is the SDK's view of the Firestore service.
type Remote interface {
	Commit(ctx context.Context, ops []backend.WriteOp, reads []backend.ReadValidation) (truetime.Timestamp, error)
	GetDocument(ctx context.Context, name doc.Name) (*doc.Document, truetime.Timestamp, error)
	NewConn() RemoteConn
}

// RemoteConn is one long-lived connection carrying real-time queries.
type RemoteConn interface {
	Listen(ctx context.Context, q *query.Query) (int64, error)
	Events() <-chan frontend.SnapshotEvent
	StopListening(targetID int64)
	Close()
}

// RegionRemote adapts an in-process core.Region to Remote, carrying the
// end-user identity so security rules apply server-side.
type RegionRemote struct {
	Region *core.Region
	DB     string
	Auth   *rules.Auth
}

func (r *RegionRemote) principal() backend.Principal {
	return backend.Principal{Auth: r.Auth}
}

// Commit implements Remote.
func (r *RegionRemote) Commit(ctx context.Context, ops []backend.WriteOp, reads []backend.ReadValidation) (truetime.Timestamp, error) {
	return r.Region.CommitTransactional(ctx, r.DB, r.principal(), ops, reads)
}

// GetDocument implements Remote.
func (r *RegionRemote) GetDocument(ctx context.Context, name doc.Name) (*doc.Document, truetime.Timestamp, error) {
	return r.Region.GetDocument(ctx, r.DB, r.principal(), name, 0)
}

// NewConn implements Remote.
func (r *RegionRemote) NewConn() RemoteConn {
	return regionConn{r.Region.NewConn(r.DB, r.principal())}
}

type regionConn struct{ c *frontend.Conn }

func (rc regionConn) Listen(ctx context.Context, q *query.Query) (int64, error) {
	return rc.c.Listen(ctx, q)
}
func (rc regionConn) Events() <-chan frontend.SnapshotEvent { return rc.c.Events() }
func (rc regionConn) StopListening(id int64)                { rc.c.StopListening(id) }
func (rc regionConn) Close()                                { rc.c.Close() }

// mutation is one queued local write.
type mutation struct {
	Kind   backend.OpKind
	Name   doc.Name
	Fields map[string]doc.Value
}

// Snapshot is a consistent local view of a query's results.
type Snapshot struct {
	Docs []*doc.Document
	// FromCache reports the snapshot may be stale: the client is
	// offline or the server's initial result has not arrived yet.
	FromCache bool
	// HasPendingWrites reports that local mutations not yet acknowledged
	// by the service are reflected in the snapshot.
	HasPendingWrites bool
}

// listener is one registered snapshot callback.
type listener struct {
	id       int
	q        *query.Query
	cb       func(Snapshot)
	targetID int64 // remote target, 0 if not remotely registered
	synced   bool  // server initial snapshot received
}

// Client is the device-side handle to one database.
type Client struct {
	remote Remote

	mu         sync.Mutex
	online     bool
	conn       RemoteConn
	connDone   chan struct{}
	serverDocs map[string]*doc.Document
	mutations  []mutation
	listeners  map[int]*listener
	byTarget   map[int64]*listener
	nextID     int
	flushing   bool
	cond       *sync.Cond // broadcast when the mutation queue drains
}

// NewClient creates a connected client.
func NewClient(remote Remote) *Client {
	c := &Client{
		remote:     remote,
		online:     true,
		serverDocs: map[string]*doc.Document{},
		listeners:  map[int]*listener{},
		byTarget:   map[int64]*listener{},
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Online reports connectivity.
func (c *Client) Online() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.online
}

// GoOffline simulates losing network connectivity: the long-lived
// connection drops and all operations are served from the local cache.
func (c *Client) GoOffline() {
	c.mu.Lock()
	if !c.online {
		c.mu.Unlock()
		return
	}
	c.online = false
	conn := c.conn
	c.conn = nil
	for _, l := range c.listeners {
		l.targetID = 0
		l.synced = false
	}
	c.byTarget = map[int64]*listener{}
	snaps := c.snapshotAllLocked()
	c.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	deliver(snaps)
}

// GoOnline restores connectivity: queued mutations flush in order
// (last-update-wins blind writes) and every listener re-registers, which
// reconciles the local cache with the service (§IV-E).
func (c *Client) GoOnline() {
	c.mu.Lock()
	if c.online {
		c.mu.Unlock()
		return
	}
	c.online = true
	c.mu.Unlock()
	c.flushAsync()
	c.mu.Lock()
	ls := make([]*listener, 0, len(c.listeners))
	for _, l := range c.listeners {
		ls = append(ls, l)
	}
	c.mu.Unlock()
	for _, l := range ls {
		c.registerRemote(l)
	}
}

// Close tears the client down; queued mutations are kept in memory only
// (use Export for persistence).
func (c *Client) Close() {
	c.mu.Lock()
	conn := c.conn
	c.conn = nil
	c.listeners = map[int]*listener{}
	c.byTarget = map[int64]*listener{}
	c.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// Set writes a document: the local cache reflects it immediately and the
// mutation is flushed asynchronously when online.
func (c *Client) Set(name string, data map[string]doc.Value) error {
	n, err := doc.ParseName(name)
	if err != nil {
		return err
	}
	fields := make(map[string]doc.Value, len(data))
	for k, v := range data {
		fields[k] = v.Clone()
	}
	c.enqueue(mutation{Kind: backend.OpSet, Name: n, Fields: fields})
	return nil
}

// Delete removes a document with the same local-first semantics.
func (c *Client) Delete(name string) error {
	n, err := doc.ParseName(name)
	if err != nil {
		return err
	}
	c.enqueue(mutation{Kind: backend.OpDelete, Name: n})
	return nil
}

func (c *Client) enqueue(m mutation) {
	c.mu.Lock()
	c.mutations = append(c.mutations, m)
	snaps := c.snapshotAllLocked()
	c.mu.Unlock()
	deliver(snaps)
	c.flushAsync()
}

// PendingWrites returns the number of unacknowledged mutations.
func (c *Client) PendingWrites() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.mutations)
}

// WaitForPendingWrites blocks until the mutation queue drains or ctx is
// done; it fails immediately while offline with pending writes.
func (c *Client) WaitForPendingWrites(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.mu.Lock()
		for len(c.mutations) > 0 && c.online {
			c.cond.Wait()
		}
		c.mu.Unlock()
	}()
	select {
	case <-done:
		c.mu.Lock()
		defer c.mu.Unlock()
		if len(c.mutations) > 0 {
			return ErrOffline
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// flushAsync drains the mutation queue in order while online.
func (c *Client) flushAsync() {
	c.mu.Lock()
	if c.flushing || !c.online || len(c.mutations) == 0 {
		c.mu.Unlock()
		return
	}
	c.flushing = true
	c.mu.Unlock()
	go c.flush()
}

func (c *Client) flush() {
	for {
		c.mu.Lock()
		if !c.online || len(c.mutations) == 0 {
			c.flushing = false
			c.cond.Broadcast()
			c.mu.Unlock()
			return
		}
		m := c.mutations[0]
		c.mu.Unlock()

		ts, err := c.remote.Commit(context.Background(), []backend.WriteOp{{
			Kind: m.Kind, Name: m.Name, Fields: m.Fields,
		}}, nil)

		c.mu.Lock()
		if err != nil {
			// Denied or otherwise rejected writes are dropped (the
			// production SDK surfaces them via the write stream); queue
			// progress must continue either way unless we went offline.
			if !c.online {
				c.flushing = false
				c.cond.Broadcast()
				c.mu.Unlock()
				return
			}
		} else {
			// Acknowledged: promote into the server cache so queries
			// keep seeing it once the overlay entry is gone.
			key := m.Name.String()
			if m.Kind == backend.OpDelete {
				delete(c.serverDocs, key)
			} else {
				d := doc.New(m.Name, m.Fields)
				d.UpdateTime = ts
				d.CreateTime = ts
				c.serverDocs[key] = d
			}
		}
		if len(c.mutations) > 0 {
			c.mutations = c.mutations[1:]
		}
		snaps := c.snapshotAllLocked()
		c.mu.Unlock()
		deliver(snaps)
	}
}

// localView returns the cache with pending mutations overlaid, and
// whether any overlay applied.
func (c *Client) localViewLocked() (map[string]*doc.Document, bool) {
	view := make(map[string]*doc.Document, len(c.serverDocs))
	for k, d := range c.serverDocs {
		view[k] = d
	}
	dirty := false
	for _, m := range c.mutations {
		dirty = true
		key := m.Name.String()
		if m.Kind == backend.OpDelete {
			delete(view, key)
			continue
		}
		d := doc.New(m.Name, m.Fields)
		if old, ok := view[key]; ok {
			d.CreateTime = old.CreateTime
			d.UpdateTime = old.UpdateTime
		}
		view[key] = d
	}
	return view, dirty
}

// Get reads a document: from the local cache when possible or offline,
// otherwise from the service (caching the result). A (nil, nil) return
// means "does not exist as far as this client knows".
func (c *Client) Get(ctx context.Context, name string) (*doc.Document, error) {
	n, err := doc.ParseName(name)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	view, _ := c.localViewLocked()
	if d, ok := view[n.String()]; ok {
		c.mu.Unlock()
		return d.Clone(), nil
	}
	// A pending delete makes the doc locally absent regardless of the
	// server.
	for i := len(c.mutations) - 1; i >= 0; i-- {
		if c.mutations[i].Name.String() == n.String() {
			c.mu.Unlock()
			return nil, nil
		}
	}
	online := c.online
	c.mu.Unlock()
	if !online {
		return nil, nil // not cached, not reachable
	}
	d, _, err := c.remote.GetDocument(ctx, n)
	if errors.Is(err, backend.ErrNotFound) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.serverDocs[n.String()] = d
	c.mu.Unlock()
	return d.Clone(), nil
}

// Query evaluates q against the local view (cached documents plus
// pending mutations). It never touches the network; pair it with
// OnSnapshot for live server results.
func (c *Client) Query(q *query.Query) Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evalLocked(q, !c.online)
}

func (c *Client) evalLocked(q *query.Query, fromCache bool) Snapshot {
	view, dirty := c.localViewLocked()
	var docs []*doc.Document
	for _, d := range view {
		if q.Matches(d) {
			docs = append(docs, d)
		}
	}
	sort.Slice(docs, func(i, j int) bool { return q.Compare(docs[i], docs[j]) < 0 })
	if q.Offset > 0 {
		if q.Offset >= len(docs) {
			docs = nil
		} else {
			docs = docs[q.Offset:]
		}
	}
	if q.Limit > 0 && len(docs) > q.Limit {
		docs = docs[:q.Limit]
	}
	for i, d := range docs {
		docs[i] = q.Project(d)
	}
	return Snapshot{Docs: docs, FromCache: fromCache, HasPendingWrites: dirty}
}

type deliverable struct {
	cb   func(Snapshot)
	snap Snapshot
}

func deliver(snaps []deliverable) {
	for _, d := range snaps {
		d.cb(d.snap)
	}
}

// snapshotAllLocked recomputes every listener's snapshot.
func (c *Client) snapshotAllLocked() []deliverable {
	out := make([]deliverable, 0, len(c.listeners))
	for _, l := range c.listeners {
		out = append(out, deliverable{cb: l.cb, snap: c.evalLocked(l.q, !c.online || !l.synced)})
	}
	return out
}

// OnSnapshot registers a snapshot listener: the callback fires
// immediately with the local view, then on every relevant change —
// local mutations (latency compensation) and server updates alike. It
// returns an unsubscribe function.
func (c *Client) OnSnapshot(q *query.Query, cb func(Snapshot)) (func(), error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.nextID++
	l := &listener{id: c.nextID, q: q, cb: cb}
	c.listeners[l.id] = l
	first := c.evalLocked(q, true)
	c.mu.Unlock()

	cb(first)
	c.registerRemote(l)

	id := l.id
	return func() {
		c.mu.Lock()
		l, ok := c.listeners[id]
		if ok {
			delete(c.listeners, id)
			if l.targetID != 0 {
				delete(c.byTarget, l.targetID)
			}
		}
		conn := c.conn
		c.mu.Unlock()
		if ok && l.targetID != 0 && conn != nil {
			conn.StopListening(l.targetID)
		}
	}, nil
}

// registerRemote attaches l to the shared long-lived connection.
func (c *Client) registerRemote(l *listener) {
	c.mu.Lock()
	if !c.online {
		c.mu.Unlock()
		return
	}
	if c.conn == nil {
		c.conn = c.remote.NewConn()
		c.connDone = make(chan struct{})
		go c.readLoop(c.conn, c.connDone)
	}
	conn := c.conn
	c.mu.Unlock()

	targetID, err := conn.Listen(context.Background(), l.q)
	if err != nil {
		return // offline or denied: the local cache keeps serving
	}
	c.mu.Lock()
	if _, still := c.listeners[l.id]; still {
		l.targetID = targetID
		c.byTarget[targetID] = l
	}
	c.mu.Unlock()
}

// readLoop consumes server snapshots and folds them into the cache.
func (c *Client) readLoop(conn RemoteConn, done chan struct{}) {
	defer close(done)
	for ev := range conn.Events() {
		c.mu.Lock()
		l, ok := c.byTarget[ev.TargetID]
		if !ok {
			c.mu.Unlock()
			continue
		}
		for _, d := range ev.Added {
			c.serverDocs[d.Name.String()] = d
		}
		for _, d := range ev.Modified {
			c.serverDocs[d.Name.String()] = d
		}
		for _, n := range ev.Removed {
			delete(c.serverDocs, n.String())
		}
		l.synced = true
		snap := c.evalLocked(l.q, !c.online)
		cb := l.cb
		c.mu.Unlock()
		cb(snap)
	}
}

// RunTransaction executes an optimistic transaction (§III-E). It
// requires connectivity: reads go to the service recording versions,
// writes buffer, and the commit revalidates every read, retrying the
// whole function on conflict.
func (c *Client) RunTransaction(ctx context.Context, fn func(tx *Txn) error) error {
	if !c.Online() {
		return ErrOffline
	}
	var backoff status.Backoff
	var lastErr error
	for attempt := 0; attempt < 8; attempt++ {
		tx := &Txn{c: c, ctx: ctx, seen: map[string]bool{}, opIdx: map[string]int{}}
		if err := fn(tx); err != nil {
			return err
		}
		ts, err := c.remote.Commit(ctx, tx.ops, tx.reads)
		if err == nil {
			// Fold the committed writes into the local cache so reads
			// and listeners reflect them immediately.
			c.mu.Lock()
			for _, op := range tx.ops {
				key := op.Name.String()
				if op.Kind == backend.OpDelete {
					delete(c.serverDocs, key)
					continue
				}
				d := doc.New(op.Name, op.Fields)
				d.UpdateTime, d.CreateTime = ts, ts
				c.serverDocs[key] = d
			}
			snaps := c.snapshotAllLocked()
			c.mu.Unlock()
			deliver(snaps)
			return nil
		}
		if !status.Retryable(status.CodeOf(err)) {
			return err
		}
		lastErr = err
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff.Next()):
		}
	}
	return fmt.Errorf("mobile: transaction failed: %w", lastErr)
}

// Txn is an in-flight optimistic transaction.
type Txn struct {
	c     *Client
	ctx   context.Context
	reads []backend.ReadValidation
	seen  map[string]bool
	ops   []backend.WriteOp
	opIdx map[string]int
}

// Get reads a document from the service, recording its version.
func (tx *Txn) Get(name string) (*doc.Document, error) {
	n, err := doc.ParseName(name)
	if err != nil {
		return nil, err
	}
	d, _, err := tx.c.remote.GetDocument(tx.ctx, n)
	notFound := errors.Is(err, backend.ErrNotFound)
	if err != nil && !notFound {
		return nil, err
	}
	if !tx.seen[n.String()] {
		tx.seen[n.String()] = true
		rv := backend.ReadValidation{Name: n}
		if d != nil {
			rv.UpdateTime = d.UpdateTime
		}
		tx.reads = append(tx.reads, rv)
	}
	if notFound {
		return nil, nil
	}
	return d, nil
}

// Set buffers a write.
func (tx *Txn) Set(name string, fields map[string]doc.Value) error {
	return tx.buffer(backend.OpSet, name, fields)
}

// Delete buffers a delete.
func (tx *Txn) Delete(name string) error {
	return tx.buffer(backend.OpDelete, name, nil)
}

func (tx *Txn) buffer(kind backend.OpKind, name string, fields map[string]doc.Value) error {
	n, err := doc.ParseName(name)
	if err != nil {
		return err
	}
	op := backend.WriteOp{Kind: kind, Name: n, Fields: fields}
	if i, ok := tx.opIdx[n.String()]; ok {
		tx.ops[i] = op
		return nil
	}
	tx.opIdx[n.String()] = len(tx.ops)
	tx.ops = append(tx.ops, op)
	return nil
}
