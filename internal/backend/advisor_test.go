package backend

import (
	"testing"

	"firestore/internal/catalog"
	"firestore/internal/doc"
	"firestore/internal/index"
	"firestore/internal/query"
)

// TestAdvisorRecord: a query's shape does not depend on the order of its
// conjuncts or on its values, the suggestion follows the plan family,
// and finding and recording a shape the advisor has seen allocates
// nothing.
func TestAdvisorRecord(t *testing.T) {
	var a advisor
	q := func(city string, flip bool) *query.Query {
		preds := []query.Predicate{
			{Path: "city", Op: query.Eq, Value: doc.String(city)},
			{Path: "type", Op: query.Eq, Value: doc.String("bbq")},
		}
		if flip {
			preds[0], preds[1] = preds[1], preds[0]
		}
		return &query.Query{Collection: doc.MustCollection("/r"), Predicates: preds}
	}
	run := func(meta *catalog.Meta, q *query.Query, scanned int) *shapeEntry {
		t.Helper()
		_, e, err := a.shape("db", meta, q)
		if err != nil {
			t.Fatal(err)
		}
		a.record(e, scanned, 1)
		return e
	}
	autos := &catalog.Meta{}
	run(autos, q("SF", false), 10)
	run(autos, q("LA", true), 10)
	e := a.shapes["db\x00/r where city == and type =="]
	if len(a.shapes) != 1 || e == nil || e.Queries != 2 || e.Planned != 1 || e.Choice != "zigzag" ||
		e.Suggested != "composite(city asc, type asc) on r" {
		t.Fatalf("advisor holds %v", a.shapes)
	}
	composite := &catalog.Meta{Composites: []index.Definition{index.CompositeDef("r",
		index.Field{Path: "city", Dir: index.Ascending}, index.Field{Path: "type", Dir: index.Ascending})}}
	run(composite, q("SF", false), 1)
	if e.Choice != "composite" || e.Suggested != "" || e.Planned != 2 {
		t.Fatalf("after a composite plan the entry is %+v", e)
	}
	if raceDetector {
		return
	}
	nyc := q("NYC", true)
	if got := testing.AllocsPerRun(100, func() { run(composite, nyc, 1) }); got != 0 {
		t.Errorf("finding and recording a known shape allocates %.0f times, want 0", got)
	}
}
