package firestore

import (
	"context"
	"slices"
	"sync"

	"firestore/internal/doc"
	"firestore/internal/frontend"
	"firestore/internal/query"
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
	q        *query.Query

	// The result set, in query order and by path, and whether a snapshot
	// of it was returned. Only Next touches them.
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
	it := &QuerySnapshotIterator{c: c, q: iq, byPath: map[string]*DocumentSnapshot{}, ready: make(chan struct{}, 1)}
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

// put places s in the ordered view, replacing the document's previous
// snapshot if it had one, by binary search on the query's order; drop
// removes a document and reports whether it was there.
func (it *QuerySnapshotIterator) put(path string, s *DocumentSnapshot) {
	it.drop(path)
	i, _ := slices.BinarySearchFunc(it.docs, s, it.compare)
	it.docs = slices.Insert(it.docs, i, s)
	it.byPath[path] = s
}

func (it *QuerySnapshotIterator) drop(path string) bool {
	old, ok := it.byPath[path]
	if ok {
		i, _ := slices.BinarySearchFunc(it.docs, old, it.compare)
		it.docs = slices.Delete(it.docs, i, i+1)
		delete(it.byPath, path)
	}
	return ok
}

func (it *QuerySnapshotIterator) compare(a, b *DocumentSnapshot) int {
	return compareSnapshots(it.q, a, b)
}

// apply folds one event into the view and packages the result set with
// the delta, or returns nil when nothing this iterator shows changed. An
// Initial event — a listener's first, or the server's rebuild of the
// query after a reset or a dropped delta — is a delta whose removals are
// implied: it lists the whole result set, and whatever else the view
// held goes. Only the first snapshot is returned without a change, so a
// rebuild that changed nothing stays invisible.
func (it *QuerySnapshotIterator) apply(ev frontend.SnapshotEvent) *QuerySnapshot {
	var changes []DocumentChange
	var listed map[string]bool
	if ev.Initial {
		listed = make(map[string]bool, len(ev.Added))
	}
	upsert := func(docs []*doc.Document) {
		for _, d := range docs {
			path := d.Name.String()
			s := resultSnapshot(it.c, d, ev.TS)
			was, had := it.byPath[path]
			it.put(path, s)
			switch {
			case !had:
				changes = append(changes, DocumentChange{Kind: DocumentAdded, Doc: s})
			case !ev.Initial || was.updateTS != s.updateTS:
				changes = append(changes, DocumentChange{Kind: DocumentModified, Doc: s})
			}
			if ev.Initial {
				listed[path] = true
			}
		}
	}
	upsert(ev.Added)
	upsert(ev.Modified)
	remove := func(n doc.Name) {
		if it.drop(n.String()) {
			changes = append(changes, DocumentChange{
				Kind: DocumentRemoved,
				Doc:  &DocumentSnapshot{Ref: &DocumentRef{c: it.c, name: n}},
			})
		}
	}
	for _, n := range ev.Removed {
		remove(n)
	}
	if ev.Initial {
		for path, was := range it.byPath {
			if !listed[path] {
				remove(was.Ref.name)
			}
		}
	}
	if len(changes) == 0 && it.started {
		return nil
	}
	it.started = true
	// Docs is a copy: the view keeps changing.
	return &QuerySnapshot{Docs: slices.Clone(it.docs), Changes: changes, ReadTime: int64(ev.TS)}
}
