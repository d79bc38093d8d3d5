package firestore

import (
	"context"
	"fmt"

	"firestore/internal/doc"
	"firestore/internal/frontend"
	"firestore/internal/index"
	"firestore/internal/query"
	"firestore/internal/status"
	"firestore/internal/truetime"
)

// Direction orders query results.
type Direction int

// Sort directions.
const (
	Asc Direction = iota
	Desc
)

// Query is an immutable query builder; each method returns a derived
// query.
type Query struct {
	c     *Client
	coll  doc.CollectionPath
	preds []query.Predicate
	ords  []query.Order
	limit int
	off   int
	sel   []doc.FieldPath
	start *query.Cursor
	end   *query.Cursor
	err   error
}

// Where adds a predicate. Supported operators: "<", "<=", "==", ">",
// ">=", "array-contains".
func (q Query) Where(fieldPath, op string, value any) Query {
	if q.err != nil {
		return q
	}
	var qop query.Operator
	switch op {
	case "<":
		qop = query.Lt
	case "<=":
		qop = query.Le
	case "==":
		qop = query.Eq
	case ">":
		qop = query.Gt
	case ">=":
		qop = query.Ge
	case "array-contains":
		qop = query.ArrayContains
	default:
		q.err = status.Errorf(status.InvalidArgument, "firestore", "unknown operator %q", op)
		return q
	}
	dv, err := toValue(value)
	if err != nil {
		q.err = err
		return q
	}
	q.preds = append(append([]query.Predicate(nil), q.preds...),
		query.Predicate{Path: doc.FieldPath(fieldPath), Op: qop, Value: dv})
	return q
}

// OrderBy adds a sort order.
func (q Query) OrderBy(fieldPath string, dir Direction) Query {
	d := index.Ascending
	if dir == Desc {
		d = index.Descending
	}
	q.ords = append(append([]query.Order(nil), q.ords...),
		query.Order{Path: doc.FieldPath(fieldPath), Dir: d})
	return q
}

// Limit bounds the result count.
func (q Query) Limit(n int) Query { q.limit = n; return q }

// Offset skips the first n results.
func (q Query) Offset(n int) Query { q.off = n; return q }

// StartAt starts results at the given sort position, inclusive. Values
// align positionally with the OrderBy fields; one extra value — a
// document path string, Ref, or *DocumentSnapshot — may follow as the
// document-name tie-break, which makes the cursor pin down exactly one
// position (the usual shape for resuming after a previous page's last
// document). Alignment is validated when the query runs.
func (q Query) StartAt(values ...any) Query {
	q.start, q.err = q.cursorOf(values, true)
	return q
}

// StartAfter starts results after the given sort position (exclusive).
func (q Query) StartAfter(values ...any) Query {
	q.start, q.err = q.cursorOf(values, false)
	return q
}

// EndAt ends results at the given sort position, inclusive.
func (q Query) EndAt(values ...any) Query {
	q.end, q.err = q.cursorOf(values, true)
	return q
}

// EndBefore ends results before the given sort position (exclusive).
func (q Query) EndBefore(values ...any) Query {
	q.end, q.err = q.cursorOf(values, false)
	return q
}

func (q Query) cursorOf(values []any, inclusive bool) (*query.Cursor, error) {
	if q.err != nil {
		return nil, q.err
	}
	vals := make([]doc.Value, len(values))
	for i, v := range values {
		// A snapshot or ref stands for its document name (the tie-break
		// component).
		switch x := v.(type) {
		case *DocumentSnapshot:
			v = Ref(x.Ref.name.String())
		case *DocumentRef:
			v = Ref(x.name.String())
		}
		dv, err := toValue(v)
		if err != nil {
			return nil, fmt.Errorf("firestore: cursor value %d: %w", i, err)
		}
		vals[i] = dv
	}
	return &query.Cursor{Values: vals, Inclusive: inclusive}, nil
}

// Select restricts results to the given field paths (a projection).
func (q Query) Select(fieldPaths ...string) Query {
	sel := make([]doc.FieldPath, len(fieldPaths))
	for i, p := range fieldPaths {
		sel[i] = doc.FieldPath(p)
	}
	q.sel = sel
	return q
}

func (q Query) build() (*query.Query, error) {
	if q.err != nil {
		return nil, q.err
	}
	iq := &query.Query{
		Collection: q.coll,
		Predicates: q.preds,
		Orders:     q.ords,
		Limit:      q.limit,
		Offset:     q.off,
		Projection: q.sel,
		Start:      q.start,
		End:        q.end,
	}
	if err := iq.Validate(); err != nil {
		return nil, err
	}
	return iq, nil
}

// Documents executes the query and returns an iterator over its results.
// Build and validation errors surface on the first Next call.
func (q Query) Documents(ctx context.Context) *DocumentIterator {
	it := &DocumentIterator{c: q.c, ctx: ctx}
	it.iq, it.err = q.build()
	return it
}

// GetAll executes the query and returns every result as one slice: the
// behavior Documents had before it returned an iterator.
func (q Query) GetAll(ctx context.Context) ([]*DocumentSnapshot, error) {
	return q.Documents(ctx).GetAll()
}

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
// query (the Web SDK's onSnapshot, §III-E).
type QuerySnapshotIterator struct {
	c          *Client
	conn       *frontend.Conn
	targetID   int64
	q          *query.Query
	results    map[string]*DocumentSnapshot
	filterName string
	closed     bool
}

// Snapshots registers the query as a real-time query and returns an
// iterator of consistent snapshots; the first Next returns the initial
// result set.
func (q Query) Snapshots(ctx context.Context) (*QuerySnapshotIterator, error) {
	iq, err := q.build()
	if err != nil {
		return nil, err
	}
	conn := q.c.region.NewConn(q.c.dbID, q.c.p)
	targetID, err := conn.Listen(ctx, iq)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return &QuerySnapshotIterator{
		c:        q.c,
		conn:     conn,
		targetID: targetID,
		q:        iq,
		results:  map[string]*DocumentSnapshot{},
	}, nil
}

// Next blocks for the next snapshot. It returns an error when the
// iterator is stopped or ctx is done.
func (it *QuerySnapshotIterator) Next(ctx context.Context) (*QuerySnapshot, error) {
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case ev, ok := <-it.conn.Events():
			if !ok {
				return nil, status.New(status.FailedPrecondition, "firestore", "listener stopped")
			}
			if ev.TargetID != it.targetID {
				continue
			}
			snap := it.apply(ev)
			if snap == nil {
				continue // filtered out entirely (single-doc listener)
			}
			return snap, nil
		}
	}
}

func (it *QuerySnapshotIterator) apply(ev frontend.SnapshotEvent) *QuerySnapshot {
	var changes []DocumentChange
	include := func(name string) bool {
		return it.filterName == "" || name == it.filterName
	}
	if ev.Initial {
		// Full-state snapshot: the first event of a listener, or a
		// recovery emitted after the server dropped a delta (the query
		// went out-of-sync). Replace local state wholesale, reporting
		// the difference from what this iterator had.
		fresh := map[string]*DocumentSnapshot{}
		for _, d := range ev.Added {
			if !include(d.Name.String()) {
				continue
			}
			fresh[d.Name.String()] = resultSnapshot(it.c, d, ev.TS)
		}
		for name, s := range fresh {
			old, ok := it.results[name]
			switch {
			case !ok:
				changes = append(changes, DocumentChange{Kind: DocumentAdded, Doc: s})
			case old.updateTS != s.updateTS:
				changes = append(changes, DocumentChange{Kind: DocumentModified, Doc: s})
			}
		}
		for name, old := range it.results {
			if _, ok := fresh[name]; !ok {
				changes = append(changes, DocumentChange{Kind: DocumentRemoved, Doc: &DocumentSnapshot{Ref: old.Ref}})
			}
		}
		it.results = fresh
		return it.snapshot(changes, ev.TS)
	}
	for _, d := range ev.Added {
		if !include(d.Name.String()) {
			continue
		}
		s := resultSnapshot(it.c, d, ev.TS)
		it.results[d.Name.String()] = s
		changes = append(changes, DocumentChange{Kind: DocumentAdded, Doc: s})
	}
	for _, d := range ev.Modified {
		if !include(d.Name.String()) {
			continue
		}
		s := resultSnapshot(it.c, d, ev.TS)
		it.results[d.Name.String()] = s
		changes = append(changes, DocumentChange{Kind: DocumentModified, Doc: s})
	}
	for _, n := range ev.Removed {
		if !include(n.String()) {
			continue
		}
		if _, ok := it.results[n.String()]; !ok {
			continue
		}
		delete(it.results, n.String())
		changes = append(changes, DocumentChange{
			Kind: DocumentRemoved,
			Doc:  &DocumentSnapshot{Ref: &DocumentRef{c: it.c, name: n}},
		})
	}
	if len(changes) == 0 {
		return nil
	}
	return it.snapshot(changes, ev.TS)
}

// snapshot orders the full result set per the query and packages it with
// the delta.
func (it *QuerySnapshotIterator) snapshot(changes []DocumentChange, ts truetime.Timestamp) *QuerySnapshot {
	docs := make([]*DocumentSnapshot, 0, len(it.results))
	for _, s := range it.results {
		docs = append(docs, s)
	}
	for i := 1; i < len(docs); i++ {
		for j := i; j > 0 && it.less(docs[j], docs[j-1]); j-- {
			docs[j], docs[j-1] = docs[j-1], docs[j]
		}
	}
	return &QuerySnapshot{Docs: docs, Changes: changes, ReadTime: int64(ts)}
}

func (it *QuerySnapshotIterator) less(a, b *DocumentSnapshot) bool {
	da := &doc.Document{Name: a.Ref.name, Fields: a.fields}
	db := &doc.Document{Name: b.Ref.name, Fields: b.fields}
	return it.q.Compare(da, db) < 0
}

// Stop tears the listener down.
func (it *QuerySnapshotIterator) Stop() {
	if it.closed {
		return
	}
	it.closed = true
	it.conn.Close()
}
