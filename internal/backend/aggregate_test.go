package backend

import (
	"context"
	"fmt"
	"testing"

	"firestore/internal/doc"
	"firestore/internal/index"
	"firestore/internal/query"
)

// TestRunAggregationSnapshotAndIndexOnly: COUNT/SUM/AVG agree with a
// materialize-and-fold oracle over RunQuery, perform zero document point
// reads (index-only execution, observed through the storage engine's
// counters), and all resolve at one snapshot timestamp — re-running at
// the same readTS after later writes returns identical values.
func TestRunAggregationSnapshotAndIndexOnly(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	cities := []string{"SF", "NY"}
	for i := 0; i < 20; i++ {
		set(t, e, fmt.Sprintf("/r/d%02d", i), map[string]doc.Value{
			"city": doc.String(cities[i%2]),
			"v":    doc.Int(int64(i)),
		})
	}
	// SUM/AVG of v under a city equality needs the (city, v) composite:
	// the scanned index's sort suffix must carry the aggregated field.
	comp := index.CompositeDef("r",
		index.Field{Path: "city", Dir: index.Ascending},
		index.Field{Path: "v", Dir: index.Ascending})
	if err := e.b.AddCompositeIndex(ctx, e.dbID, comp); err != nil {
		t.Fatal(err)
	}

	q := &query.Query{Collection: doc.MustCollection("/r"),
		Predicates: []query.Predicate{{Path: "city", Op: query.Eq, Value: doc.String("SF")}}}
	aggs := []query.Aggregation{
		{Kind: query.AggCount, Alias: "n"},
		{Kind: query.AggSum, Path: "v", Alias: "s"},
		{Kind: query.AggAvg, Path: "v", Alias: "a"},
	}

	db, err := e.cat.Get(e.dbID)
	if err != nil {
		t.Fatal(err)
	}
	readsBefore := db.Spanner.Stats().Reads
	res, readTS, err := e.b.RunAggregation(ctx, e.dbID, priv, q, aggs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if delta := db.Spanner.Stats().Reads - readsBefore; delta != 0 {
		t.Fatalf("aggregation performed %d document point reads, want 0 (index-only)", delta)
	}
	if res.ScannedEntries == 0 {
		t.Fatal("no index work reported")
	}

	// Materialize-and-fold oracle over the ordinary query path.
	oracle, _, err := e.b.RunQuery(ctx, e.dbID, priv, q, nil, readTS)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, d := range oracle.Docs {
		sum += d.Fields["v"].IntVal()
	}
	n := int64(len(oracle.Docs))
	if got := res.Values["n"].IntVal(); got != n {
		t.Errorf("count = %d, want %d", got, n)
	}
	if got := res.Values["s"].IntVal(); got != sum {
		t.Errorf("sum = %d, want %d", got, sum)
	}
	if got, want := res.Values["a"].DoubleVal(), float64(sum)/float64(n); got != want {
		t.Errorf("avg = %v, want %v", got, want)
	}

	// Snapshot consistency: later writes must not leak into a re-run at
	// the original read timestamp.
	set(t, e, "/r/late", map[string]doc.Value{"city": doc.String("SF"), "v": doc.Int(1000)})
	res2, ts2, err := e.b.RunAggregation(ctx, e.dbID, priv, q, aggs, readTS)
	if err != nil {
		t.Fatal(err)
	}
	if ts2 != readTS {
		t.Fatalf("readTS changed: %d -> %d", readTS, ts2)
	}
	for _, alias := range []string{"n", "s", "a"} {
		if doc.Compare(res2.Values[alias], res.Values[alias]) != 0 {
			t.Errorf("%s at snapshot = %s, want %s", alias, res2.Values[alias], res.Values[alias])
		}
	}
	// And a fresh strong read does see the new document.
	res3, _, err := e.b.RunAggregation(ctx, e.dbID, priv, q, aggs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := res3.Values["n"].IntVal(); got != n+1 {
		t.Errorf("fresh count = %d, want %d", got, n+1)
	}
}

// countingStorage counts the scans an execution makes of its Storage.
type countingStorage struct {
	query.Storage
	scans int
}

func (c *countingStorage) ScanIndex(ctx context.Context, lo, hi []byte, fn func(key, value []byte) bool) error {
	c.scans++
	return c.Storage.ScanIndex(ctx, lo, hi, fn)
}

// TestExplainQueryAlternatives: explain returns the plan RunQuery
// executes — the composite over the zig-zag join of two automatic
// indexes — and analyze mode counts the entries and results RunQuery
// reports for it, and the scans a counting Storage sees.
func TestExplainQueryAlternatives(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	for i := 0; i < 12; i++ {
		set(t, e, fmt.Sprintf("/r/d%02d", i), map[string]doc.Value{
			"city": doc.String([]string{"SF", "NY", "LA"}[i%3]),
			"type": doc.String([]string{"BBQ", "Thai"}[i%2]),
		})
	}
	comp := index.CompositeDef("r",
		index.Field{Path: "city", Dir: index.Ascending},
		index.Field{Path: "type", Dir: index.Ascending})
	if err := e.b.AddCompositeIndex(ctx, e.dbID, comp); err != nil {
		t.Fatal(err)
	}
	q := &query.Query{Collection: doc.MustCollection("/r"),
		Predicates: []query.Predicate{
			{Path: "city", Op: query.Eq, Value: doc.String("SF")},
			{Path: "type", Op: query.Eq, Value: doc.String("BBQ")},
		}}
	plain, _, err := e.b.ExplainQuery(ctx, e.dbID, priv, q, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := PlanExplain{Plan: "scan " + comp.String(), Choice: "composite"}
	if plain != want {
		t.Fatalf("explain = %+v, want %+v", plain, want)
	}
	analyzed, readTS, err := e.b.ExplainQuery(ctx, e.dbID, priv, q, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := e.b.RunQuery(ctx, e.dbID, priv, q, nil, readTS)
	if err != nil {
		t.Fatal(err)
	}
	db, err := e.cat.Get(e.dbID)
	if err != nil {
		t.Fatal(err)
	}
	plan, _, err := e.b.planQuery(e.dbID, db.Meta(), q)
	if err != nil {
		t.Fatal(err)
	}
	st := &countingStorage{Storage: e.b.snapshot(db, readTS)}
	if _, err := plan.Execute(ctx, st, nil); err != nil {
		t.Fatal(err)
	}
	want.ActualEntries, want.Scans, want.Results = res.ScannedEntries, st.scans, len(res.Docs)
	if analyzed != want || want.Results != 2 || want.Scans != res.Scans {
		t.Fatalf("analyze = %+v, want %+v with 2 results", analyzed, want)
	}
	if rep := e.b.AdvisorReport(e.dbID); len(rep) != 1 || rep[0].Choice != want.Choice {
		t.Fatalf("RunQuery recorded %+v, want one %s execution", rep, want.Choice)
	}

	// A limit ends the drain where the SDK iterator stops, and COUNT stops
	// at offset+limit: over 100 matching documents, limit 5 reads 5
	// entries, in one scan.
	for i := 0; i < 100; i++ {
		set(t, e, fmt.Sprintf("/big/d%03d", i), map[string]doc.Value{"k": doc.Int(1)})
	}
	big := &query.Query{Collection: doc.MustCollection("/big"),
		Predicates: []query.Predicate{{Path: "k", Op: query.Eq, Value: doc.Int(1)}}, Limit: 5}
	analyzed, _, err = e.b.ExplainQuery(ctx, e.dbID, priv, big, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if analyzed.Results != 5 || analyzed.ActualEntries != 5 || analyzed.Scans != 1 {
		t.Fatalf("analyze of %s = %+v, want 5 results from 5 entries in 1 scan", big, analyzed)
	}
	count := []query.Aggregation{{Kind: query.AggCount, Alias: "n"}}
	for _, offset := range []int{0, 3} {
		big.Offset = offset
		agg, _, err := e.b.RunAggregation(ctx, e.dbID, priv, big, count, 0)
		if err != nil {
			t.Fatal(err)
		}
		if n := agg.Values["n"].IntVal(); n != 5 || agg.ScannedEntries != offset+5 {
			t.Fatalf("count of %s = %d from %d entries, want 5 from %d", big, n, agg.ScannedEntries, offset+5)
		}
	}
}
