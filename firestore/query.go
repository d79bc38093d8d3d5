package firestore

import (
	"context"
	"fmt"
	"slices"

	"firestore/internal/doc"
	"firestore/internal/index"
	"firestore/internal/query"
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
	qop, err := query.ParseOperator(op)
	if err != nil {
		q.err = err
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

// compareSnapshots is the query's result order over snapshots: what
// Evaluate sorts by and a listener's view is kept in.
func compareSnapshots(iq *query.Query, a, b *DocumentSnapshot) int {
	return iq.Compare(a.document(), b.document())
}

// Evaluate runs the query over docs instead of the service — the
// matching documents in query order, after offset, limit and projection
// — which is how an offline layer answers from its cache. Absent
// snapshots never match.
func (q Query) Evaluate(docs []*DocumentSnapshot) ([]*DocumentSnapshot, error) {
	iq, err := q.build()
	if err != nil {
		return nil, err
	}
	var out []*DocumentSnapshot
	for _, s := range docs {
		if s.exists && iq.Matches(s.document()) {
			out = append(out, s)
		}
	}
	slices.SortFunc(out, func(a, b *DocumentSnapshot) int { return compareSnapshots(iq, a, b) })
	out = out[min(max(iq.Offset, 0), len(out)):]
	if iq.Limit > 0 && len(out) > iq.Limit {
		out = out[:iq.Limit]
	}
	if len(iq.Projection) > 0 {
		for i, s := range out {
			out[i] = resultSnapshot(q.c, iq.Project(s.document()), truetime.Timestamp(s.ReadTime.UnixNano()))
		}
	}
	return out, nil
}
