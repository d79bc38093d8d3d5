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

// TestCommitMaintainsPlannerStats: committed writes (and deletes) keep
// the per-index cardinality statistics in step with durable state, and
// the cost-based planner uses them to prefer the cheaper index.
func TestCommitMaintainsPlannerStats(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	db, err := e.cat.Get(e.dbID)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		set(t, e, fmt.Sprintf("/c/x%d", i), map[string]doc.Value{"v": doc.Int(int64(i))})
	}
	if got := db.Stats().CollectionDocs("/c"); got != 10 {
		t.Fatalf("collection docs = %d, want 10", got)
	}
	auto := index.AutoDef("c", "v", index.Ascending)
	if got := db.Stats().IndexEntries(auto.ID); got != 10 {
		t.Fatalf("auto index entries = %d, want 10", got)
	}
	// Delete half; stats follow.
	for i := 0; i < 5; i++ {
		if _, err := e.b.Commit(ctx, e.dbID, priv, []WriteOp{
			{Kind: OpDelete, Name: doc.MustName(fmt.Sprintf("/c/x%d", i))},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.Stats().CollectionDocs("/c"); got != 5 {
		t.Fatalf("collection docs after deletes = %d, want 5", got)
	}
	if got := db.Stats().IndexEntries(auto.ID); got != 5 {
		t.Fatalf("auto index entries after deletes = %d, want 5", got)
	}
}

// TestExplainQueryAlternatives: explain returns the chosen plan first
// with cost estimates for every alternative, and analyze mode reports
// actual entries visited per alternative.
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
	alts, _, err := e.b.ExplainQuery(ctx, e.dbID, priv, q, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(alts) < 2 {
		t.Fatalf("want >=2 alternatives (composite + zigzag), got %d: %v", len(alts), alts)
	}
	if !alts[0].Chosen || alts[0].Choice != "composite" {
		t.Fatalf("chosen plan = %+v, want chosen composite", alts[0])
	}
	results := alts[0].Results
	for _, a := range alts {
		if a.Results != results {
			t.Fatalf("alternative %q returned %d results, chosen returned %d", a.Plan, a.Results, results)
		}
		if a.ActualEntries < alts[0].ActualEntries {
			t.Fatalf("chosen plan visited %d entries but %q visited %d", alts[0].ActualEntries, a.Plan, a.ActualEntries)
		}
	}
}
