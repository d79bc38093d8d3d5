package backend

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"firestore/internal/doc"
	"firestore/internal/index"
	"firestore/internal/query"
)

// TestCommitAllocs holds the write path's allocation count for the
// benchmark's YCSB document — one 900-byte binary field, every byte
// replaced — committed over storage.Mem with the Real-time Cache and
// billing attached: 196 before the path was rebuilt around one encoding
// per byte (DESIGN.md "Write path: who owns the bytes"), 64 after, 50
// with the instruments of every layer declared and fed, which the layers
// used to leave out when built without a registry, 47 since the write
// triggers take the commit's documents instead of a framed copy, 31
// since spanner holds row keys by reference and a span's end is a value,
// and 20 since bytes values are immutable (a copy shares them), the index
// diff, name list and route table live on the stack, the transaction
// buffers its writes in itself, a new memtable chain has room for two
// versions and the memo shares the retained row key.
func TestCommitAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops entries under -race; allocation counts mean nothing")
	}
	e := newEnv(t)
	ctx := context.Background()
	r := rand.New(rand.NewSource(7))
	values := make([]doc.Value, 8)
	for i := range values {
		v := make([]byte, 900)
		r.Read(v)
		values[i] = doc.Bytes(v)
	}
	ops := []WriteOp{{Kind: OpSet, Name: doc.MustName("/ycsb/user00000042")}}
	i := 0
	commit := func() {
		ops[0].Fields = map[string]doc.Value{"field0": values[i%len(values)]}
		i++
		if _, err := e.b.Commit(ctx, e.dbID, priv, ops); err != nil {
			t.Fatal(err)
		}
	}
	commit() // the create; every run below is an update
	got := testing.AllocsPerRun(200, commit)
	t.Logf("Backend.Commit: %.0f allocations per YCSB update", got)
	if got > 20 {
		t.Errorf("Backend.Commit allocates %.0f times per YCSB update, want <= 20", got)
	}
}

// restaurantFields is the benchmark's query_mix document (benchmark/gen.go
// restaurantData): twelve fields, one array of three strings, one map of
// three.
func restaurantFields(i int) map[string]doc.Value {
	cities := []string{"SF", "NYC", "LA", "SEA"}
	tags := []string{"patio", "late", "cheap", "fancy", "kids", "dogs"}
	return map[string]doc.Value{
		"name":       doc.String(fmt.Sprintf("Restaurant %d", i)),
		"city":       doc.String(cities[i%len(cities)]),
		"category":   doc.String([]string{"bbq", "sushi", "pizza"}[i/len(cities)%3]),
		"price":      doc.Int(int64(i%4 + 1)),
		"avgRating":  doc.Double(float64(i%41)/10 + 1),
		"numRatings": doc.Int(int64(i % 1000)),
		"open":       doc.Bool(i%3 != 0),
		"owner":      doc.String(fmt.Sprintf("owner-%d", i%997)),
		"phone":      doc.String(fmt.Sprintf("+1-555-%07d", i)),
		"createdAt":  doc.Int(int64(1600000000 + i)),
		"tags":       doc.Array(doc.String(tags[i%6]), doc.String(tags[i/6%6]), doc.String(tags[i/36%6])),
		"address": doc.Map(map[string]doc.Value{
			"street": doc.String(fmt.Sprintf("%d Main St", i%900+1)),
			"zip":    doc.String(fmt.Sprintf("%05d", 10000+i%80000)),
			"floor":  doc.Int(int64(i % 7)),
		}),
	}
}

// TestQueryAllocs holds the read path's allocation count above the
// engine for the benchmark's most common query: one equality, limit 20,
// over the restaurant document on storage.Mem. 1 181 per RunQuery before
// the decode diet (DESIGN.md "Read path: who owns the bytes"), of which
// ~57 per returned document; the second bound is that marginal cost. 35
// before a shape's plan was remembered (DESIGN.md "Planning &
// aggregations") and a scan's bounds had buffers of their own, 17 after.
func TestQueryAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops entries under -race; allocation counts mean nothing")
	}
	e := newEnv(t)
	ctx := context.Background()
	for i := 0; i < 400; i++ {
		set(t, e, fmt.Sprintf("/restaurants/r%06d", i), restaurantFields(i))
	}
	run := func(limit int) float64 {
		q := &query.Query{
			Collection: doc.MustCollection("/restaurants"),
			Predicates: []query.Predicate{{Path: "city", Op: query.Eq, Value: doc.String("LA")}},
			Limit:      limit,
		}
		return testing.AllocsPerRun(100, func() {
			res, _, err := e.b.RunQuery(ctx, e.dbID, priv, q, nil, 0)
			if err != nil || len(res.Docs) != limit {
				t.Fatalf("RunQuery: %d documents, %v", len(res.Docs), err)
			}
		})
	}
	at20, at60 := run(20), run(60)
	perDoc := (at60 - at20) / 40
	t.Logf("Backend.RunQuery: %.0f allocations at limit 20, %.1f per extra document", at20, perDoc)
	if at20 > 24 {
		t.Errorf("Backend.RunQuery allocates %.0f times at limit 20, want <= 24", at20)
	}
	if perDoc > 20 {
		t.Errorf("Backend.RunQuery allocates %.1f times per extra returned document, want <= 20", perDoc)
	}
}

// TestZigZagRefillAllocs: re-entering a scan allocates nothing. The same
// zig-zag query returns the same 20 documents over two layouts: alone, and
// a hundred other city entries apart, where the city leg refills after
// every hit. The layouts' allocation counts must not follow the refills.
func TestZigZagRefillAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops entries under -race; allocation counts mean nothing")
	}
	ctx := context.Background()
	q := &query.Query{
		Collection: doc.MustCollection("/restaurants"),
		Predicates: []query.Predicate{
			{Path: "city", Op: query.Eq, Value: doc.String("LA")},
			{Path: "category", Op: query.Eq, Value: doc.String("sushi")},
		},
	}
	measure := func(gap int) (allocs float64, scans int64) {
		e := newEnv(t)
		var ops []WriteOp
		for i := 0; i < 20*gap; i++ {
			fields := map[string]doc.Value{"city": doc.String("LA"), "category": doc.String("bbq")}
			if i%gap == 0 {
				fields = restaurantFields(i / gap)
				fields["city"], fields["category"] = doc.String("LA"), doc.String("sushi")
			}
			ops = append(ops, WriteOp{Kind: OpSet, Name: doc.MustName(fmt.Sprintf("/restaurants/r%06d", i*100/gap)), Fields: fields})
			if len(ops) == 200 || i == 20*gap-1 {
				if _, err := e.b.Commit(ctx, e.dbID, priv, ops); err != nil {
					t.Fatal(err)
				}
				ops = ops[:0]
			}
		}
		db, err := e.cat.Get(e.dbID)
		if err != nil {
			t.Fatal(err)
		}
		before := db.Spanner.Stats().Scans
		allocs = testing.AllocsPerRun(50, func() {
			res, _, err := e.b.RunQuery(ctx, e.dbID, priv, q, nil, 0)
			if err != nil || len(res.Docs) != 20 || res.Docs[19].Name.ID() != "r001900" {
				t.Fatalf("RunQuery: %d documents, %v", len(res.Docs), err)
			}
		})
		return allocs, (db.Spanner.Stats().Scans - before) / 51
	}
	alone, aloneScans := measure(1)
	apart, apartScans := measure(100)
	t.Logf("zig-zag RunQuery: %.0f allocations in %d scans alone, %.0f in %d scans apart", alone, aloneScans, apart, apartScans)
	if apartScans < 3*aloneScans {
		t.Fatalf("the layouts make %d and %d scans, want the second >= 3x the first", aloneScans, apartScans)
	}
	if apart > alone+5 {
		t.Errorf("%d refills cost %.0f allocations more than %d", apartScans, apart-alone, aloneScans)
	}
}

// TestQueryFetchAllocs: once the memo holds a query's documents, fetching
// one more of them allocates nothing — its name is cut from the page's
// arena and its document is the memo's. Each fetch used to cost two: the
// name's string and its segments.
func TestQueryFetchAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops entries under -race; allocation counts mean nothing")
	}
	e := newEnv(t)
	ctx := context.Background()
	for i := 0; i < 400; i++ {
		set(t, e, fmt.Sprintf("/restaurants/r%06d", i), restaurantFields(i))
	}
	run := func(limit int) float64 {
		q := &query.Query{
			Collection: doc.MustCollection("/restaurants"),
			Predicates: []query.Predicate{{Path: "city", Op: query.Eq, Value: doc.String("SF")}},
			Limit:      limit,
		}
		return testing.AllocsPerRun(100, func() {
			res, _, err := e.b.RunQuery(ctx, e.dbID, priv, q, nil, 0)
			if err != nil || len(res.Docs) != limit {
				t.Fatalf("RunQuery: %d documents, %v", len(res.Docs), err)
			}
		})
	}
	at10, at90 := run(10), run(90)
	perDoc := (at90 - at10) / 80
	t.Logf("memo-warm RunQuery: %.0f allocations at limit 10, %.2f per extra document", at10, perDoc)
	if perDoc > 0.5 {
		t.Errorf("memo-warm RunQuery allocates %.2f times per extra returned document, want <= 0.5", perDoc)
	}
}

// TestPlanTableAllocs: a remembered shape plans in two allocations, the
// plan with its scans and one arena for their bytes, whether it is a
// single scan (an equality, or an equality and a range over a composite)
// or a zig-zag join.
func TestPlanTableAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops entries under -race; allocation counts mean nothing")
	}
	e := newEnv(t)
	db, err := e.cat.Get(e.dbID)
	if err != nil {
		t.Fatal(err)
	}
	db.AddComposite(index.CompositeDef("restaurants",
		index.Field{Path: "city", Dir: index.Ascending},
		index.Field{Path: "avgRating", Dir: index.Descending}))
	db.FinishBackfill(db.Meta().Composites[0].ID)
	meta := db.Meta()
	city := query.Predicate{Path: "city", Op: query.Eq, Value: doc.String("LA")}
	for _, q := range []*query.Query{
		{Collection: restaurants, Predicates: []query.Predicate{city}, Limit: 20},
		{Collection: restaurants, Predicates: []query.Predicate{city, {Path: "avgRating", Op: query.Gt, Value: doc.Double(3)}},
			Orders: []query.Order{{Path: "avgRating", Dir: index.Descending}}},
		{Collection: restaurants, Predicates: []query.Predicate{city, {Path: "category", Op: query.Eq, Value: doc.String("sushi")}}},
	} {
		if _, _, err := e.b.planQuery(e.dbID, meta, q); err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(100, func() {
			if _, _, err := e.b.planQuery(e.dbID, meta, q); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations", q, got)
		if got > 2 {
			t.Errorf("planning %s again allocates %.0f times, want <= 2", q, got)
		}
	}
}
