package query

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"firestore/internal/doc"
	"firestore/internal/index"
)

// fuzzBytes turns a fuzz input into choices: each call takes one byte,
// and an exhausted input answers 0 from then on.
type fuzzBytes []byte

func (f *fuzzBytes) next(n int) int {
	if len(*f) == 0 {
		return 0
	}
	b := (*f)[0]
	*f = (*f)[1:]
	return int(b) % n
}

var (
	fuzzPaths   = []doc.FieldPath{"a", "b", "a.k", "a.x"}
	fuzzNumbers = []doc.Value{doc.Int(0), doc.Int(1), doc.Double(1), doc.Double(math.Copysign(0, -1)),
		doc.Double(0), doc.Double(math.NaN()), doc.Int(-1), doc.Double(2.5), doc.Int(2),
		doc.Double(math.Inf(1)), doc.Double(math.Inf(-1))}
	fuzzStrings = []string{"", "a", "b", "ab"}
	fuzzKeys    = []string{"k", "x", "y"}
)

// valueOfKind builds a value of kind k (doc.Kind's order) from the next
// bytes; an array or a map nests at most two deep.
func (f *fuzzBytes) valueOfKind(k doc.Kind, depth int) doc.Value {
	switch k {
	case doc.KindNull:
		return doc.Null()
	case doc.KindBool:
		return doc.Bool(f.next(2) == 1)
	case doc.KindNumber:
		return fuzzNumbers[f.next(len(fuzzNumbers))]
	case doc.KindTimestamp:
		return doc.Timestamp(time.Unix(int64(f.next(3)), 0))
	case doc.KindString:
		return doc.String(fuzzStrings[f.next(len(fuzzStrings))])
	case doc.KindBytes:
		return doc.Bytes([]byte(fuzzStrings[f.next(len(fuzzStrings))]))
	case doc.KindReference:
		return doc.Reference(fmt.Sprintf("/c/d%d", f.next(3)))
	case doc.KindGeoPoint:
		return doc.Geo(float64(f.next(3)), float64(f.next(3)))
	case doc.KindArray:
		n := f.next(3)
		if depth >= 2 {
			n = 0
		}
		els := make([]doc.Value, n)
		for i := range els {
			els[i] = f.value(depth + 1)
		}
		return doc.Array(els...)
	default:
		n := f.next(3)
		if depth >= 2 {
			n = 0
		}
		m := make(map[string]doc.Value, n)
		for range n {
			m[fuzzKeys[f.next(len(fuzzKeys))]] = f.value(depth + 1)
		}
		return doc.Map(m)
	}
}

func (f *fuzzBytes) value(depth int) doc.Value {
	return f.valueOfKind(doc.Kind(f.next(10)), depth)
}

// fuzzDocs decodes up to 16 documents of /c, named d00, d01, ...; each
// of the fields a and b holds a value of any kind or is missing.
func fuzzDocs(f fuzzBytes) []*doc.Document {
	docs := make([]*doc.Document, f.next(17))
	for i := range docs {
		fields := map[string]doc.Value{}
		for _, name := range []string{"a", "b"} {
			if k := f.next(11); k < 10 {
				fields[name] = f.valueOfKind(doc.Kind(k), 0)
			}
		}
		docs[i] = doc.New(doc.MustName(fmt.Sprintf("/c/d%02d", i)), fields)
	}
	return docs
}

// fuzzQuery decodes a query over /c with its index set and page size:
// 0–2 predicates of any operator, 0–2 orders, cursors (a component past
// the orders is a document name), offset, limit, projection, 0–2
// composites and exemptions on any path.
func fuzzQuery(f fuzzBytes) (q *Query, composites []index.Definition, ex *index.Exemptions, page int) {
	path := func() doc.FieldPath { return fuzzPaths[f.next(len(fuzzPaths))] }
	q = &Query{Collection: doc.MustCollection("/c")}
	for range f.next(3) {
		q.Predicates = append(q.Predicates, Predicate{Path: path(), Op: Operator(f.next(6)), Value: f.value(0)})
	}
	for range f.next(3) {
		q.Orders = append(q.Orders, Order{Path: path(), Dir: index.Direction(f.next(2))})
	}
	cursor := func() *Cursor {
		kind := f.next(4) // none, inclusive, exclusive, none
		if kind%3 == 0 {
			return nil
		}
		orders := len(q.EffectiveOrders())
		c := &Cursor{Inclusive: kind == 1, Values: make([]doc.Value, 1+f.next(orders+1))}
		for i := range c.Values {
			if i < orders {
				c.Values[i] = f.value(1)
			} else {
				c.Values[i] = doc.String(fmt.Sprintf("/c/d%02d", f.next(17)))
			}
		}
		return c
	}
	q.Start, q.End = cursor(), cursor()
	q.Offset, q.Limit = f.next(4), f.next(5)
	for range f.next(3) {
		q.Projection = append(q.Projection, path())
	}
	for range f.next(3) {
		fields := make([]index.Field, 1+f.next(3))
		for i := range fields {
			fields[i] = index.Field{Path: path(), Dir: index.Direction(f.next(2))}
		}
		composites = append(composites, index.CompositeDef("c", fields...))
	}
	ex = &index.Exemptions{}
	for _, p := range fuzzPaths {
		if f.next(6) == 0 {
			ex.Exempt("c", p)
		}
	}
	return q, composites, ex, 1 + f.next(4)
}

// FuzzQueryAgainstNaive: whatever plan serves a query, draining it page
// by page gives exactly Evaluate's answer over the same documents,
// projected, and COUNT gives its length. The seeds hold one document per
// value kind and the single-field probes that disagreed while the index
// held a map only by its leaves.
func FuzzQueryAgainstNaive(f *testing.F) {
	// Ten documents: field a of d0i holds a value of kind i (the map is
	// {k: 1}), and b is missing.
	docBytes := []byte{10}
	for k, v := range [][]byte{{}, {1}, {1}, {1}, {1}, {1}, {1}, {1, 1}, {0}, {1, 0, 2, 1}} {
		docBytes = append(append(append(docBytes, byte(k)), v...), 10)
	}
	// After the predicates and orders: no cursor, offset, limit,
	// projection, composite or exemption, and pages of one document.
	rest := []byte{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0}
	for _, c := range []struct {
		op Operator
		k  byte // the operand is {k: fuzzNumbers[k]}
	}{{Eq, 1}, {Lt, 8}, {Le, 1}, {Gt, 0}, {Ge, 1}} {
		f.Add(docBytes, append([]byte{1, 0, byte(c.op), 9, 1, 0, 2, c.k, 0}, rest...))
	}
	for dir := range 2 { // order by a, either direction
		f.Add(docBytes, append([]byte{0, 1, 0, byte(dir)}, rest...))
	}
	// a == 1 and a == 2 match nothing.
	f.Add(docBytes, append([]byte{2, 0, 0, 2, 1, 0, 0, 2, 8, 0}, rest...))
	f.Fuzz(func(t *testing.T, docBytes, queryBytes []byte) {
		docs := fuzzDocs(docBytes)
		q, composites, ex, page := fuzzQuery(queryBytes)
		if q.Validate() != nil {
			return
		}
		// A query that needs an index gets the one the error names, as a
		// developer following its link would create.
		plan, err := BuildPlanWithStats(q, composites, ex, nil)
		var nie *NeedsIndexError
		if errors.As(err, &nie) {
			composites = append(composites, index.CompositeDef("c", nie.Fields...))
			plan, err = BuildPlanWithStats(q, composites, ex, nil)
		}
		if errors.As(err, &nie) {
			return
		}
		if err != nil {
			t.Fatalf("BuildPlanWithStats(%s): %v", q, err)
		}
		m := newMemStore(composites, ex)
		for _, d := range docs {
			m.put(d)
		}
		want := m.evaluate(q)

		// Drain as the backend pages: each page asks for at most page
		// documents of what the limit leaves, and resumes where the last
		// one stopped.
		var got []*doc.Document
		var resume []byte
		for {
			pq, pp := *q, *plan
			pq.Limit = page
			if q.Limit > 0 {
				pq.Limit = min(page, q.Limit-len(got))
			}
			pp.Query = &pq
			res, err := pp.Execute(context.Background(), m, resume)
			if err != nil {
				t.Fatalf("Execute(%s): %v", &pq, err)
			}
			got = append(got, res.Docs...)
			if res.Resume == nil || (q.Limit > 0 && len(got) >= q.Limit) {
				break
			}
			if len(got) > len(docs) {
				t.Fatalf("%s (%s, pages of %d): %d documents from %d stored", q, plan.Choice, page, len(got), len(docs))
			}
			resume = res.Resume
		}
		t.Logf("plan %s, pages of %d", plan.Choice, page)
		assertSameDocs(t, q, got, want)
		if q.Start != nil || q.End != nil {
			return // COUNT takes no cursors
		}
		count, err := plan.ExecuteCount(context.Background(), m)
		if err != nil || count.Count != int64(len(want)) {
			t.Fatalf("%s (%s): COUNT = %+v (%v), want %d", q, plan.Choice, count, err, len(want))
		}
	})
}
