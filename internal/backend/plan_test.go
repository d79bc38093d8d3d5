package backend

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"firestore/internal/doc"
	"firestore/internal/index"
	"firestore/internal/query"
)

var restaurants = doc.MustCollection("/restaurants")

func eq(path string, v doc.Value) query.Predicate {
	return query.Predicate{Path: doc.FieldPath(path), Op: query.Eq, Value: v}
}

// TestPlanTableBindsLikeBuildPlan: the second execution of a shape binds
// its values to the remembered plan, and gets the plan BuildPlanWithStats
// makes for it, scan for scan; the shape was planned once. The shapes are
// the benchmark's query_mix four (COUNT's is the first without a limit)
// and a range, a descending order and an array-contains join.
func TestPlanTableBindsLikeBuildPlan(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	cityRating := index.CompositeDef("restaurants",
		index.Field{Path: "city", Dir: index.Ascending},
		index.Field{Path: "avgRating", Dir: index.Descending})
	if err := e.b.AddCompositeIndex(ctx, e.dbID, cityRating); err != nil {
		t.Fatal(err)
	}
	db, err := e.cat.Get(e.dbID)
	if err != nil {
		t.Fatal(err)
	}
	meta := db.Meta()
	shapes := []func(city string, n int64) *query.Query{
		func(city string, _ int64) *query.Query {
			return &query.Query{Collection: restaurants, Predicates: []query.Predicate{eq("city", doc.String(city))}, Limit: 20}
		},
		func(city string, n int64) *query.Query {
			return &query.Query{Collection: restaurants, Predicates: []query.Predicate{
				eq("city", doc.String(city)), eq("category", doc.String([]string{"bbq", "sushi"}[n%2]))}}
		},
		func(city string, _ int64) *query.Query {
			return &query.Query{Collection: restaurants, Predicates: []query.Predicate{eq("city", doc.String(city))},
				Orders: []query.Order{{Path: "avgRating", Dir: index.Descending}}, Limit: 20}
		},
		func(_ string, n int64) *query.Query {
			return &query.Query{Collection: restaurants, Predicates: []query.Predicate{
				{Path: "numRatings", Op: query.Ge, Value: doc.Int(n)}, {Path: "numRatings", Op: query.Lt, Value: doc.Int(n + 300)}}}
		},
		func(_ string, _ int64) *query.Query {
			return &query.Query{Collection: restaurants, Orders: []query.Order{{Path: "price", Dir: index.Descending}}}
		},
		func(city string, n int64) *query.Query {
			return &query.Query{Collection: restaurants, Predicates: []query.Predicate{
				{Path: "tags", Op: query.ArrayContains, Value: doc.String([]string{"patio", "late"}[n%2])}, eq("city", doc.String(city))}}
		},
	}
	for i, shape := range shapes {
		for j, city := range []string{"SF", "LA", "NYC"} {
			q := shape(city, int64(j*100+1))
			got, entry, err := e.b.planQuery(e.dbID, meta, q)
			if err != nil {
				t.Fatalf("shape %d: planQuery(%s): %v", i, q, err)
			}
			want, err := query.BuildPlanWithStats(q, meta.ReadyComposites(), &meta.Exemptions, nil)
			if err != nil {
				t.Fatal(err)
			}
			if entry == nil || entry.Planned != 1 || entry.Choice != want.Choice {
				t.Fatalf("shape %d: execution %d has entry %+v, want one planning of a %s plan", i, j+1, entry, want.Choice)
			}
			if got.Choice != want.Choice || len(got.Scans) != len(want.Scans) {
				t.Fatalf("%s: plan %s (%s), want %s (%s)", q, got, got.Choice, want, want.Choice)
			}
			for k, g := range got.Scans {
				w := want.Scans[k]
				if g.Def.ID != w.Def.ID || !bytes.Equal(g.Prefix, w.Prefix) || !bytes.Equal(g.Lo, w.Lo) || !bytes.Equal(g.Hi, w.Hi) {
					t.Fatalf("%s: scan %d is %s [%x, %x), want %s [%x, %x)", q, k, g.Def, g.Lo, g.Hi, w.Def, w.Lo, w.Hi)
				}
			}
		}
	}
}

// TestPlanTableFollowsIndexSet: a change to the index set takes effect
// on the next query. A composite is not used while it backfills and is
// once it is ready; after its removal the shape plans its zig-zag join
// again; after an exemption of one of its fields the shape needs an
// index, and that failure is not remembered. Planned counts each
// planning, and every result is the expected one.
func TestPlanTableFollowsIndexSet(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	const n = 48
	for i := 0; i < n; i++ {
		set(t, e, fmt.Sprintf("/restaurants/r%06d", i), restaurantFields(i))
	}
	var want []string
	for i := 0; i < n; i++ {
		if f := restaurantFields(i); f["city"].StringVal() == "LA" && f["category"].StringVal() == "sushi" {
			want = append(want, fmt.Sprintf("r%06d", i))
		}
	}
	q := &query.Query{Collection: restaurants, Predicates: []query.Predicate{
		eq("city", doc.String("LA")), eq("category", doc.String("sushi"))}}
	entry := func() AdvisorEntry {
		t.Helper()
		rep := e.b.AdvisorReport(e.dbID)
		if len(rep) != 1 {
			t.Fatalf("advisor holds %+v, want one shape", rep)
		}
		return rep[0]
	}
	run := func(choice string, planned int64) {
		t.Helper()
		res, _, err := e.b.RunQuery(ctx, e.dbID, priv, q, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, d := range res.Docs {
			got = append(got, d.Name.ID())
		}
		if !slices.Equal(got, want) {
			t.Fatalf("RunQuery = %v, want %v", got, want)
		}
		if a := entry(); a.Choice != choice || a.Planned != planned {
			t.Fatalf("after the query the entry is %+v, want a %s plan planned %d times", a, choice, planned)
		}
	}
	run("zigzag", 1)
	run("zigzag", 1)
	db, err := e.cat.Get(e.dbID)
	if err != nil {
		t.Fatal(err)
	}
	def := index.CompositeDef("restaurants",
		index.Field{Path: "city", Dir: index.Ascending},
		index.Field{Path: "category", Dir: index.Ascending})
	db.AddComposite(def) // registered, backfilling
	run("zigzag", 2)
	if err := e.b.AddCompositeIndex(ctx, e.dbID, def); err != nil {
		t.Fatal(err)
	}
	run("composite", 3)
	run("composite", 3)
	if err := e.b.RemoveCompositeIndex(ctx, e.dbID, def.ID); err != nil {
		t.Fatal(err)
	}
	run("zigzag", 4)
	if err := e.b.AddExemption(ctx, e.dbID, "restaurants", "category"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		var nie *query.NeedsIndexError
		if _, _, err := e.b.RunQuery(ctx, e.dbID, priv, q, nil, 0); !errors.As(err, &nie) {
			t.Fatalf("query over an exempted field: %v, want NeedsIndexError", err)
		}
		if a := entry(); a.Planned != 4 || a.Queries != 6 {
			t.Fatalf("after a failed planning the entry is %+v", a)
		}
	}
}

// TestShapeTableIsBounded: a database's shapes past maxShapes are
// planned on every execution and not tracked. Queries on 10 000
// distinct map keys (`prefs.<key> == true`) leave the table at the
// bound, and each returns the documents holding its key.
func TestShapeTableIsBounded(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	const keys, users = 10000, 10
	for u := 0; u < users; u++ {
		set(t, e, fmt.Sprintf("/users/u%d", u), map[string]doc.Value{
			"prefs": doc.Map(map[string]doc.Value{fmt.Sprintf("k%d", u*keys/users): doc.Bool(true)}),
		})
	}
	coll := doc.MustCollection("/users")
	for k := 0; k < keys; k++ {
		q := &query.Query{Collection: coll, Predicates: []query.Predicate{eq(fmt.Sprintf("prefs.k%d", k), doc.Bool(true))}}
		res, _, err := e.b.RunQuery(ctx, e.dbID, priv, q, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		if k%(keys/users) == 0 {
			want = 1
		}
		if len(res.Docs) != want || (want == 1 && res.Docs[0].Name.ID() != fmt.Sprintf("u%d", k/(keys/users))) {
			t.Fatalf("%s returned %d documents, want %d", q, len(res.Docs), want)
		}
	}
	if got := len(e.b.AdvisorReport(e.dbID)); got != maxShapes {
		t.Fatalf("advisor tracks %d shapes, want %d", got, maxShapes)
	}
}

// TestSameFieldPredicatesThroughRunQuery: conflicting and duplicate
// predicates on one field return the rows the query matches through
// RunQuery and COUNT, on twenty restaurants whose numRatings is their
// number and whose city alternates.
func TestSameFieldPredicatesThroughRunQuery(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		set(t, e, fmt.Sprintf("/restaurants/r%02d", i), map[string]doc.Value{
			"city":       doc.String([]string{"SF", "NY"}[i%2]),
			"numRatings": doc.Int(int64(i)),
		})
	}
	for _, c := range []struct {
		preds []query.Predicate
		want  int
	}{
		{[]query.Predicate{eq("city", doc.String("SF")), eq("city", doc.String("NY"))}, 0},
		{[]query.Predicate{{Path: "numRatings", Op: query.Gt, Value: doc.Int(10)}, {Path: "numRatings", Op: query.Gt, Value: doc.Int(5)}}, 9},
		{[]query.Predicate{{Path: "numRatings", Op: query.Lt, Value: doc.Int(5)}, {Path: "numRatings", Op: query.Lt, Value: doc.Int(10)}}, 5},
	} {
		q := &query.Query{Collection: restaurants, Predicates: c.preds}
		res, _, err := e.b.RunQuery(ctx, e.dbID, priv, q, nil, 0)
		if err != nil || len(res.Docs) != c.want {
			t.Fatalf("RunQuery(%s) = %d documents (%v), want %d", q, len(res.Docs), err, c.want)
		}
		agg, _, err := e.b.RunAggregation(ctx, e.dbID, priv, q, []query.Aggregation{{Kind: query.AggCount, Alias: "n"}}, 0)
		if err != nil || agg.Values["n"].IntVal() != int64(c.want) {
			t.Fatalf("COUNT(%s) = %v (%v), want %d", q, agg.Values["n"], err, c.want)
		}
	}
}

// TestPlanTableUnderConcurrentReplans: queries of several shapes bind
// remembered plans while the index set keeps changing under them, so
// entries are re-planned concurrently with binds and records. Each
// result stays right (the race detector judges the rest).
func TestPlanTableUnderConcurrentReplans(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	for i := 0; i < 48; i++ {
		set(t, e, fmt.Sprintf("/restaurants/r%06d", i), restaurantFields(i))
	}
	db, err := e.cat.Get(e.dbID)
	if err != nil {
		t.Fatal(err)
	}
	queries := []*query.Query{
		{Collection: restaurants, Predicates: []query.Predicate{eq("city", doc.String("LA"))}},
		{Collection: restaurants, Predicates: []query.Predicate{eq("city", doc.String("SF")), eq("category", doc.String("bbq"))}},
		{Collection: restaurants, Predicates: []query.Predicate{{Path: "price", Op: query.Ge, Value: doc.Int(3)}}},
	}
	want := make([]int, len(queries))
	for i, q := range queries {
		for j := 0; j < 48; j++ {
			if q.Matches(doc.New(doc.MustName(fmt.Sprintf("/restaurants/r%06d", j)), restaurantFields(j))) {
				want[i]++
			}
		}
	}
	// A backfilling composite changes the Meta, never the plan.
	def := index.CompositeDef("restaurants",
		index.Field{Path: "city", Dir: index.Ascending},
		index.Field{Path: "category", Dir: index.Ascending})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			db.AddComposite(def)
			db.RemoveComposite(def.ID)
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				k := (g + i) % len(queries)
				res, _, err := e.b.RunQuery(ctx, e.dbID, priv, queries[k], nil, 0)
				if err != nil || len(res.Docs) != want[k] {
					t.Errorf("%s: %v, want %d documents", queries[k], err, want[k])
					return
				}
			}
		}()
	}
	wg.Wait()
	<-done
	for _, a := range e.b.AdvisorReport(e.dbID) {
		if a.Planned < 1 || a.Queries == 0 {
			t.Errorf("entry %+v", a)
		}
	}
}
