// Package mobile is the Mobile and Web SDK (§III-E, §IV-E): the client
// library for code running on end-user devices. It is the offline layer
// over a *firestore.Client, which carries everything that leaves the
// device: a cache of the server documents the client has seen, a queue
// of mutations the server has not acknowledged, and the overlay of one
// on the other that answers Get, Query and OnSnapshot locally (latency
// compensation) and while disconnected. Blind writes follow
// last-update-wins; transactions need connectivity.
//
// Every operation served purely by the local cache is free; only traffic
// that reaches the service is billed (§IV-E).
package mobile

import (
	"context"
	"sync"

	"firestore/firestore"
	"firestore/internal/status"
)

// ErrOffline reports an operation that requires connectivity (e.g. a
// transaction) attempted while disconnected.
var ErrOffline = status.New(status.Unavailable, "mobile", "client is offline")

// Snapshot is a consistent local view of a query's results.
type Snapshot struct {
	Docs []*firestore.DocumentSnapshot
	// FromCache reports the snapshot may be stale: the client is
	// offline or the server's initial result has not arrived yet.
	FromCache bool
	// HasPendingWrites reports that local mutations not yet acknowledged
	// by the service are reflected in the snapshot.
	HasPendingWrites bool
}

// listener is one registered snapshot callback.
type listener struct {
	q      firestore.Query
	cb     func(Snapshot)
	held   map[string]bool    // paths of the server result set it last put in the cache
	synced bool               // a server snapshot arrived since going online
	detach context.CancelFunc // stops the pump; nil while offline
}

// Client is the device-side handle to one database.
type Client struct {
	fs *firestore.Client

	mu     sync.Mutex
	online bool
	// session scopes the flush and the listener pumps to one spell of
	// connectivity; drop cancels it.
	session   context.Context
	drop      context.CancelFunc
	docs      map[string]*firestore.DocumentSnapshot // server documents seen, by path
	mutations []*firestore.DocumentSnapshot          // unacknowledged writes in order; absent = delete
	listeners map[*listener]struct{}
	flushing  bool
	cond      *sync.Cond     // broadcast when the mutation queue drains
	wg        sync.WaitGroup // the flush goroutine and the pumps
}

// NewClient creates a connected client over the Server SDK client fs,
// whose identity (firestore.NewUserClient) the service's rules see.
func NewClient(fs *firestore.Client) *Client {
	c := &Client{
		fs:        fs,
		online:    true,
		docs:      map[string]*firestore.DocumentSnapshot{},
		listeners: map[*listener]struct{}{},
	}
	c.session, c.drop = context.WithCancel(context.Background())
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Online reports connectivity.
func (c *Client) Online() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.online
}

// GoOffline simulates losing network connectivity: the listeners detach
// and all operations are served from the local cache.
func (c *Client) GoOffline() {
	c.mu.Lock()
	if !c.online {
		c.mu.Unlock()
		return
	}
	c.online = false
	c.drop()
	for l := range c.listeners {
		l.synced, l.detach = false, nil
	}
	deliver := c.snapshotAllLocked()
	c.mu.Unlock()
	deliver()
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
	c.session, c.drop = context.WithCancel(context.Background())
	ls := make([]*listener, 0, len(c.listeners))
	for l := range c.listeners {
		ls = append(ls, l)
	}
	c.mu.Unlock()
	c.flushAsync()
	for _, l := range ls {
		c.attach(l)
	}
}

// Close tears the client down and waits for its goroutines, so it must
// not be called from a snapshot callback; queued mutations are kept in
// memory only (use Export for persistence).
func (c *Client) Close() {
	c.mu.Lock()
	c.online = false
	c.drop()
	c.listeners = map[*listener]struct{}{}
	c.cond.Broadcast()
	c.mu.Unlock()
	c.wg.Wait()
}

// Set writes a document: the local cache reflects it immediately and the
// mutation is flushed asynchronously when online.
func (c *Client) Set(path string, data map[string]any) error {
	if data == nil {
		data = map[string]any{}
	}
	return c.enqueue(path, data)
}

// Delete removes a document with the same local-first semantics.
func (c *Client) Delete(path string) error { return c.enqueue(path, nil) }

func (c *Client) enqueue(path string, data map[string]any) error {
	m, err := c.fs.Doc(path).LocalSnapshot(data)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.mutations = append(c.mutations, m)
	deliver := c.snapshotAllLocked()
	c.mu.Unlock()
	deliver()
	c.flushAsync()
	return nil
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
	stop := context.AfterFunc(ctx, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.mutations) > 0 && c.online && ctx.Err() == nil {
		c.cond.Wait()
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if len(c.mutations) > 0 {
		return ErrOffline
	}
	return nil
}

// flushAsync drains the mutation queue in order while online.
func (c *Client) flushAsync() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.flushing || !c.online || len(c.mutations) == 0 {
		return
	}
	c.flushing = true
	c.wg.Add(1)
	go c.flush()
}

func (c *Client) flush() {
	defer c.wg.Done()
	for {
		c.mu.Lock()
		if !c.online || len(c.mutations) == 0 {
			c.flushing = false
			c.cond.Broadcast()
			c.mu.Unlock()
			return
		}
		m, ctx := c.mutations[0], c.session
		c.mu.Unlock()

		var err error
		if m.Exists() {
			err = m.Ref.Set(ctx, m.Data())
		} else {
			err = m.Ref.Delete(ctx)
		}

		c.mu.Lock()
		if err != nil && (ctx.Err() != nil || status.Retryable(status.CodeOf(err))) {
			// Offline mid-call, or still failing transiently after the
			// SDK's retries (which paced this loop): a write the
			// application saw succeed locally stays queued.
			c.mu.Unlock()
			continue
		}
		if err == nil {
			// Acknowledged: promote into the server cache so queries
			// keep seeing it once the overlay entry is gone.
			c.cacheLocked(m)
		}
		// A rejected write (denied, invalid) is dropped — the production
		// SDK surfaces it on the write stream — and the queue moves on.
		if len(c.mutations) > 0 && c.mutations[0] == m {
			c.mutations = c.mutations[1:]
		}
		deliver := c.snapshotAllLocked()
		c.mu.Unlock()
		deliver()
	}
}

// cacheLocked records what the service is now known to hold for a
// document: a snapshot of it, or its absence.
func (c *Client) cacheLocked(s *firestore.DocumentSnapshot) {
	if s.Exists() {
		c.docs[s.Ref.Path()] = s
	} else {
		delete(c.docs, s.Ref.Path())
	}
}

// viewLocked returns the cache with pending mutations overlaid — absent
// snapshots mark pending deletes — and whether any overlay applied.
func (c *Client) viewLocked() (map[string]*firestore.DocumentSnapshot, bool) {
	view := make(map[string]*firestore.DocumentSnapshot, len(c.docs)+len(c.mutations))
	for p, s := range c.docs {
		view[p] = s
	}
	for _, m := range c.mutations {
		view[m.Ref.Path()] = m
	}
	return view, len(c.mutations) > 0
}

// Get reads a document: from the local cache when possible or offline,
// otherwise from the service (caching the result). A snapshot that does
// not exist means "does not exist as far as this client knows".
func (c *Client) Get(ctx context.Context, path string) (*firestore.DocumentSnapshot, error) {
	ref := c.fs.Doc(path)
	absent, err := ref.LocalSnapshot(nil)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	view, _ := c.viewLocked()
	s, ok := view[ref.Path()] // a pending delete is locally absent whatever the server says
	online := c.online
	c.mu.Unlock()
	if ok {
		return s, nil
	}
	if !online {
		return absent, nil // not cached, not reachable
	}
	if s, err = ref.Get(ctx); err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.cacheLocked(s)
	c.mu.Unlock()
	return s, nil
}

// Query evaluates q against the local view (cached documents plus
// pending mutations). It never touches the network; pair it with
// OnSnapshot for live server results.
func (c *Client) Query(q firestore.Query) (Snapshot, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evalLocked(q, !c.online)
}

func (c *Client) evalLocked(q firestore.Query, fromCache bool) (Snapshot, error) {
	view, dirty := c.viewLocked()
	docs := make([]*firestore.DocumentSnapshot, 0, len(view))
	for _, s := range view {
		docs = append(docs, s)
	}
	docs, err := q.Evaluate(docs)
	return Snapshot{Docs: docs, FromCache: fromCache, HasPendingWrites: dirty}, err
}

// snapshotAllLocked recomputes every listener's snapshot; the caller
// runs the returned delivery once c.mu is released.
func (c *Client) snapshotAllLocked() (deliver func()) {
	snaps := make(map[*listener]Snapshot, len(c.listeners))
	for l := range c.listeners {
		snaps[l], _ = c.evalLocked(l.q, !c.online || !l.synced) // OnSnapshot validated l.q
	}
	return func() {
		for l, snap := range snaps {
			l.cb(snap)
		}
	}
}

// OnSnapshot registers a snapshot listener: the callback fires
// immediately with the local view, then on every relevant change —
// local mutations (latency compensation) and server updates alike. It
// returns an unsubscribe function.
func (c *Client) OnSnapshot(q firestore.Query, cb func(Snapshot)) (func(), error) {
	l := &listener{q: q, cb: cb}
	c.mu.Lock()
	first, err := c.evalLocked(q, true)
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	c.listeners[l] = struct{}{}
	c.mu.Unlock()

	cb(first)
	c.attach(l)

	return func() {
		c.mu.Lock()
		delete(c.listeners, l)
		if l.detach != nil {
			l.detach()
		}
		c.mu.Unlock()
	}, nil
}

// attach registers l with the service — a change made after it returns
// reaches l — and starts the pump that folds l's server snapshots into
// the cache until the session ends or l is unsubscribed.
func (c *Client) attach(l *listener) {
	c.mu.Lock()
	if _, still := c.listeners[l]; !still || !c.online || l.detach != nil {
		c.mu.Unlock()
		return // unsubscribed, offline again, or attached by a concurrent GoOnline
	}
	ctx, cancel := context.WithCancel(c.session)
	l.detach = cancel
	c.wg.Add(1)
	c.mu.Unlock()
	it, err := l.q.Snapshots(ctx)
	if err != nil {
		cancel()
		c.wg.Done()
		return // unreachable or denied: the local cache keeps serving
	}
	go c.pump(ctx, l, it)
}

func (c *Client) pump(ctx context.Context, l *listener, it *firestore.QuerySnapshotIterator) {
	defer c.wg.Done()
	defer it.Stop()
	for {
		server, err := it.Next(ctx)
		if err != nil {
			return
		}
		c.mu.Lock()
		if ctx.Err() != nil {
			c.mu.Unlock()
			return
		}
		// A server snapshot is l's whole result set and REPLACES what l
		// had put in the cache, be it a delta, the first snapshot after a
		// reconnect or the frontend's mid-stream reset: merging would
		// keep a document deleted behind the client's back forever. One
		// that left the result stays only if another listener holds it.
		held := make(map[string]bool, len(server.Docs))
		for _, s := range server.Docs {
			held[s.Ref.Path()] = true
			c.docs[s.Ref.Path()] = s
		}
		for p := range l.held {
			if !held[p] && !c.heldByOtherLocked(l, p) {
				delete(c.docs, p)
			}
		}
		l.held, l.synced = held, true
		snap, _ := c.evalLocked(l.q, false)
		c.mu.Unlock()
		l.cb(snap)
	}
}

func (c *Client) heldByOtherLocked(l *listener, path string) bool {
	for o := range c.listeners {
		if o != l && o.held[path] {
			return true
		}
	}
	return false
}

// RunTransaction executes an optimistic transaction (§III-E) through the
// Server SDK. It requires connectivity; on commit the writes fold into
// the local cache so reads and listeners reflect them immediately.
func (c *Client) RunTransaction(ctx context.Context, fn func(tx *firestore.Transaction) error) error {
	if !c.Online() {
		return ErrOffline
	}
	var last *firestore.Transaction // each attempt is a new one
	err := c.fs.RunTransaction(ctx, func(tx *firestore.Transaction) error {
		last = tx
		return fn(tx)
	})
	if err != nil {
		return err
	}
	c.mu.Lock()
	for _, w := range last.Writes() {
		c.cacheLocked(w)
	}
	deliver := c.snapshotAllLocked()
	c.mu.Unlock()
	deliver()
	return nil
}
