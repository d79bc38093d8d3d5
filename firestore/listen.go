package firestore

import (
	"context"
	"slices"
	"sync"

	"firestore/internal/frontend"
	"firestore/internal/status"
)

// QuerySnapshot is one consistent view of a real-time query's results.
type QuerySnapshot struct {
	// Docs is the full result set in query order.
	Docs []*DocumentSnapshot
	// Changes lists the delta from the previous snapshot.
	Changes []DocumentChange
	// ReadTime is the snapshot's consistent timestamp.
	ReadTime int64
}

// DocumentChangeKind classifies a delta entry.
type DocumentChangeKind int

// Delta kinds.
const (
	DocumentAdded DocumentChangeKind = iota
	DocumentModified
	DocumentRemoved
)

// DocumentChange is one result-set delta entry.
type DocumentChange struct {
	Kind DocumentChangeKind
	Doc  *DocumentSnapshot // for Removed, only Ref is set
}

// QuerySnapshotIterator streams consistent snapshots of a real-time
// query (the Web SDK's onSnapshot, §III-E). Next and Stop may be called
// from different goroutines; Next itself is for one consumer.
type QuerySnapshotIterator struct {
	c        *Client
	targetID int64

	// The result set, in the server's order and by path, and whether a
	// snapshot of it was returned. Only Next touches them.
	docs    []*DocumentSnapshot
	byPath  map[string]*DocumentSnapshot
	started bool

	// Events routed here that Next has not consumed. Unbounded: the
	// frontend drops a connection's events when its buffer fills, so a
	// stalled consumer must not hold the shared stream back (one that is
	// done calls Stop). ready holds a token while Next has work.
	mu      sync.Mutex
	queue   []frontend.SnapshotEvent
	stopped bool
	ready   chan struct{}
}

// Snapshots registers the query as a real-time query and returns an
// iterator of consistent snapshots; the first Next returns the initial
// result set.
func (q Query) Snapshots(ctx context.Context) (*QuerySnapshotIterator, error) {
	iq, err := q.build()
	if err != nil {
		return nil, err
	}
	c := q.c
	it := &QuerySnapshotIterator{c: c, ready: make(chan struct{}, 1)}
	// Registration holds c.mu: Listen puts the initial snapshot on the
	// connection before it returns the target, and the demultiplexer
	// must not look that target up until it is in iters.
	c.mu.Lock()
	if c.conn == nil {
		c.conn = c.region.NewConn(c.dbID, c.p)
		c.demuxDone = make(chan struct{})
		c.iters = map[int64]*QuerySnapshotIterator{}
		go c.demux(c.conn, c.demuxDone)
	}
	it.targetID, err = c.conn.Listen(ctx, iq)
	if err != nil {
		c.unlockAndRelease()
		return nil, err
	}
	c.iters[it.targetID] = it
	c.mu.Unlock()
	return it, nil
}

// demux routes the shared connection's events to their iterators until
// the connection closes. It never blocks on a consumer.
func (c *Client) demux(conn *frontend.Conn, done chan struct{}) {
	defer close(done)
	for ev := range conn.Events() {
		c.mu.Lock()
		it := c.iters[ev.TargetID]
		c.mu.Unlock()
		if it != nil { // else stopped with events still in flight
			it.push(ev, false)
		}
	}
}

// unlockAndRelease unlocks c.mu and, if no iterator is left, closes the
// shared connection and waits for demux — after the unlock, because
// demux takes c.mu to drain.
func (c *Client) unlockAndRelease() {
	conn, done := c.conn, c.demuxDone
	if len(c.iters) > 0 {
		conn = nil
	} else {
		c.conn = nil
	}
	c.mu.Unlock()
	if conn != nil {
		conn.Close()
		<-done
	}
}

// push hands the iterator an event, or the news that it has stopped.
func (it *QuerySnapshotIterator) push(ev frontend.SnapshotEvent, stop bool) {
	it.mu.Lock()
	if stop {
		it.stopped, it.queue = true, nil
	} else if !it.stopped {
		it.queue = append(it.queue, ev)
	}
	it.mu.Unlock()
	select {
	case it.ready <- struct{}{}:
	default:
	}
}

// Next blocks for the next snapshot. It returns an error when the
// iterator is stopped or ctx is done, or the server's error when it could
// not rebuild the query; the iterator is stopped after that.
func (it *QuerySnapshotIterator) Next(ctx context.Context) (*QuerySnapshot, error) {
	for {
		it.mu.Lock()
		if it.stopped {
			it.mu.Unlock()
			return nil, status.New(status.FailedPrecondition, "firestore", "listener stopped")
		}
		var ev frontend.SnapshotEvent
		have := len(it.queue) > 0
		if have {
			ev, it.queue = it.queue[0], it.queue[1:]
			if len(it.queue) == 0 {
				it.queue = nil // let go of the drained events
			}
		}
		it.mu.Unlock()
		if have {
			if ev.Err != nil {
				// The server could not rebuild the query and dropped it.
				it.Stop()
				return nil, ev.Err
			}
			if snap := it.apply(ev); snap != nil {
				return snap, nil
			}
			continue // nothing this iterator shows changed
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-it.ready:
		}
	}
}

// Stop tears the listener down; the client's connection closes with its
// last listener.
func (it *QuerySnapshotIterator) Stop() {
	c := it.c
	c.mu.Lock()
	if c.iters[it.targetID] == it {
		delete(c.iters, it.targetID)
		c.conn.StopListening(it.targetID)
		c.unlockAndRelease()
	} else {
		c.mu.Unlock()
	}
	it.push(frontend.SnapshotEvent{}, true)
}

// apply folds one event into the view and packages the result set with
// the delta, or returns nil when nothing this iterator shows changed.
// The server orders the view: an Initial's documents go in its order, a
// delta's at their positions (ev.At), and those a delta leaves alone
// keep their order in the places left. An Initial — a listener's first,
// or a rebuild after a reset or a dropped delta — lists the whole result
// set: what else the view held goes, and a document at the update time
// the view holds is no change, so a rebuild that changed nothing stays
// invisible (only the first snapshot is returned without a change).
func (it *QuerySnapshotIterator) apply(ev frontend.SnapshotEvent) *QuerySnapshot {
	old, was := it.docs, it.byPath
	size := len(old) + len(ev.Added) - len(ev.Removed)
	if ev.Initial {
		size, it.byPath = len(ev.Added), make(map[string]*DocumentSnapshot, len(ev.Added))
	}
	it.docs = make([]*DocumentSnapshot, size)
	var changes []DocumentChange
	for i, d := range slices.Concat(ev.Added, ev.Modified) {
		s, path := resultSnapshot(it.c, d, ev.TS), d.Name.String()
		switch prev, had := was[path]; {
		case !had:
			changes = append(changes, DocumentChange{Kind: DocumentAdded, Doc: s})
		case !ev.Initial || prev.updateTS != s.updateTS:
			changes = append(changes, DocumentChange{Kind: DocumentModified, Doc: s})
		}
		if !ev.Initial {
			i = int(ev.At[i]) // an Initial's index is its place
		}
		it.docs[i], it.byPath[path] = s, s
	}
	for _, n := range ev.Removed {
		delete(it.byPath, n.String())
	}
	next := 0
	for _, s := range old {
		switch cur, ok := it.byPath[s.Ref.Path()]; {
		case !ok:
			changes = append(changes, DocumentChange{Kind: DocumentRemoved, Doc: &DocumentSnapshot{Ref: s.Ref}})
		case cur == s: // left alone by a delta
			for it.docs[next] != nil {
				next++
			}
			it.docs[next] = s
		}
	}
	if len(changes) == 0 && it.started {
		return nil
	}
	it.started = true
	// Docs is a copy: the application may reorder it.
	return &QuerySnapshot{Docs: slices.Clone(it.docs), Changes: changes, ReadTime: int64(ev.TS)}
}
