package backend

import (
	"testing"

	"firestore/internal/doc"
	"firestore/internal/query"
)

// TestAdvisorRecord: a query's shape does not depend on the order of its
// conjuncts or on its values, the suggestion follows the plan family,
// and recording a shape the advisor has seen allocates nothing.
func TestAdvisorRecord(t *testing.T) {
	var a advisor
	q := func(city string, flip bool) *query.Query {
		preds := []query.Predicate{
			{Path: "city", Op: query.Eq, Value: doc.String(city)},
			{Path: "price", Op: query.Lt, Value: doc.Int(3)},
		}
		if flip {
			preds[0], preds[1] = preds[1], preds[0]
		}
		return &query.Query{Collection: doc.MustCollection("/r"), Predicates: preds}
	}
	zigzag, composite := &query.Plan{Choice: "zigzag"}, &query.Plan{Choice: "composite"}
	a.record("db", q("SF", false), zigzag, 10, 1)
	a.record("db", q("LA", true), zigzag, 10, 1)
	e := a.shapes["db\x00/r where city == and price < order by price asc"]
	if len(a.shapes) != 1 || e == nil || e.Queries != 2 || e.Suggested != "composite(city asc, price asc) on r" {
		t.Fatalf("advisor holds %v", a.shapes)
	}
	a.record("db", q("SF", false), composite, 1, 1)
	if e.Choice != "composite" || e.Suggested != "" {
		t.Fatalf("after a composite plan the entry is %+v", e)
	}
	if raceDetector {
		return
	}
	nyc := q("NYC", true)
	if got := testing.AllocsPerRun(100, func() { a.record("db", nyc, composite, 1, 1) }); got != 0 {
		t.Errorf("recording a known shape allocates %.0f times, want 0", got)
	}
}
