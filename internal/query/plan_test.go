package query

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"firestore/internal/doc"
	"firestore/internal/index"
	"firestore/internal/status"
)

// seedABL1 reproduces the ABL1 zig-zag workload shape: cities and types
// assigned round-robin so every (city, type) pair holds n/16 documents
// while each single-field prefix holds n/4.
func seedABL1(s *memStore, n int) {
	cities := []string{"SF", "NY", "LA", "CHI"}
	types := []string{"BBQ", "Sushi", "Pizza", "Thai"}
	for i := 0; i < n; i++ {
		s.put(restaurant(
			fmt.Sprintf("r%05d", i),
			cities[i%len(cities)],
			types[(i/len(cities))%len(types)],
			float64(i%50)/10,
			int64(i%200),
		))
	}
}

// TestCostPlannerPicksCheapestOnABL1: with a (city, type) composite the
// planner picks its single scan over the zig-zag join of the two
// automatic indexes — by order, not by any estimate — and the composite
// returns the same documents while visiting 1/8 of the entries.
func TestCostPlannerPicksCheapestOnABL1(t *testing.T) {
	comp := index.CompositeDef("restaurants",
		index.Field{Path: "city", Dir: index.Ascending},
		index.Field{Path: "type", Dir: index.Ascending})
	s := newMemStore([]index.Definition{comp}, nil)
	seedABL1(s, 800)

	q := &Query{
		Collection: doc.MustCollection("/restaurants"),
		Predicates: []Predicate{
			{"city", Eq, doc.String("SF")},
			{"type", Eq, doc.String("BBQ")},
		},
	}
	picked, err := BuildPlanWithStats(q, s.composites, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if picked.Choice != "composite" || picked.ZigZag() {
		t.Fatalf("picked %s (%s), want the single composite scan", picked, picked.Choice)
	}
	zigzag, err := BuildPlanWithStats(q, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if zigzag.Choice != "zigzag" {
		t.Fatalf("without the composite: %s (%s), want the zig-zag join", zigzag, zigzag.Choice)
	}
	want := s.evaluate(q)
	scanned := map[string]int{}
	for _, p := range []*Plan{picked, zigzag} {
		res, err := p.Execute(context.Background(), s, nil)
		if err != nil {
			t.Fatalf("Execute(%s): %v", p, err)
		}
		assertSameDocs(t, q, res.Docs, want)
		scanned[p.Choice] = res.ScannedEntries
	}
	if scanned["composite"] != len(want) || scanned["zigzag"] < 8*len(want) {
		t.Fatalf("entries visited %v for %d results, want composite = results and zigzag >= 8x", scanned, len(want))
	}
}

// TestEnumeratedAlternativesAgree is the property test: for randomized
// query shapes, every ordering of the same index set yields one plan —
// a plan is a function of the query and the index set — and it executes
// to the naive result set. A query with a predicate or an order is never
// planned onto the Entities table.
func TestEnumeratedAlternativesAgree(t *testing.T) {
	comp1 := index.CompositeDef("restaurants",
		index.Field{Path: "city", Dir: index.Ascending},
		index.Field{Path: "avgRating", Dir: index.Descending})
	comp2 := index.CompositeDef("restaurants",
		index.Field{Path: "type", Dir: index.Ascending},
		index.Field{Path: "avgRating", Dir: index.Descending})
	comp3 := index.CompositeDef("restaurants",
		index.Field{Path: "city", Dir: index.Ascending},
		index.Field{Path: "type", Dir: index.Ascending})
	orders := [][]index.Definition{
		{comp1, comp2, comp3}, {comp1, comp3, comp2}, {comp2, comp1, comp3},
		{comp2, comp3, comp1}, {comp3, comp1, comp2}, {comp3, comp2, comp1},
	}

	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 40; trial++ {
		s := newMemStore(orders[0], nil)
		for i := 0; i < 30; i++ {
			s.put(restaurant(
				fmt.Sprintf("r%02d", i),
				[]string{"SF", "NY"}[rng.Intn(2)],
				[]string{"BBQ", "Pizza"}[rng.Intn(2)],
				float64(rng.Intn(20))/4,
				int64(rng.Intn(20)),
			))
		}
		q := randomQuery(rng)
		p, err := BuildPlanWithStats(q, orders[0], nil, nil)
		if err != nil {
			var nie *NeedsIndexError
			if errors.As(err, &nie) {
				continue
			}
			t.Fatalf("trial %d: BuildPlanWithStats(%s): %v", trial, q, err)
		}
		for _, set := range orders[1:] {
			if again, err := BuildPlanWithStats(q, set, nil, nil); err != nil || again.String() != p.String() {
				t.Fatalf("trial %d: %s plans %s from one index order, %v (%v) from another", trial, q, p, again, err)
			}
		}
		if p.Choice == "entities" && (len(q.Predicates) > 0 || len(q.Orders) > 0) {
			t.Fatalf("trial %d: %s planned onto the Entities table", trial, q)
		}
		res, err := p.Execute(context.Background(), s, nil)
		if err != nil {
			t.Fatalf("trial %d: Execute(%s): %v", trial, p, err)
		}
		assertSameDocs(t, q, res.Docs, s.evaluate(q))
	}
}

// TestPlanBenchmarkShapes pins the plan of each query shape the
// benchmark runs, against the index set its workload creates.
func TestPlanBenchmarkShapes(t *testing.T) {
	cityRating := index.CompositeDef("restaurants",
		index.Field{Path: "city", Dir: index.Ascending},
		index.Field{Path: "avgRating", Dir: index.Descending})
	roomTS := index.CompositeDef("messages",
		index.Field{Path: "room", Dir: index.Ascending},
		index.Field{Path: "ts", Dir: index.Descending})
	eq := func(path string, v doc.Value) Predicate { return Predicate{doc.FieldPath(path), Eq, v} }
	restaurants, city := doc.MustCollection("/restaurants"), eq("city", doc.String("SF"))
	for _, c := range []struct {
		name       string
		q          *Query
		composites []index.Definition
		want       string
	}{
		{"ycsb field0 == limit 20", &Query{Collection: doc.MustCollection("/ycsb"),
			Predicates: []Predicate{eq("field0", doc.Bytes([]byte{1, 2, 3}))}, Limit: 20},
			nil, "scan index(ycsb: field0 asc)"},
		{"query_mix city == limit 20", &Query{Collection: restaurants,
			Predicates: []Predicate{city}, Limit: 20},
			[]index.Definition{cityRating}, "scan index(restaurants: city asc)"},
		{"query_mix city == category ==", &Query{Collection: restaurants,
			Predicates: []Predicate{city, eq("category", doc.String("bbq"))}},
			[]index.Definition{cityRating}, "zigzag(index(restaurants: category asc) ⋈ index(restaurants: city asc))"},
		{"query_mix city == order by avgRating desc limit 20", &Query{Collection: restaurants,
			Predicates: []Predicate{city}, Orders: []Order{{"avgRating", index.Descending}}, Limit: 20},
			[]index.Definition{cityRating}, "scan index(restaurants: city asc, avgRating desc)"},
		{"query_mix count(city ==)", &Query{Collection: restaurants, Predicates: []Predicate{city}},
			[]index.Definition{cityRating}, "scan index(restaurants: city asc)"},
		{"listen room == order by ts desc limit 20", &Query{Collection: doc.MustCollection("/messages"),
			Predicates: []Predicate{eq("room", doc.Int(3))}, Orders: []Order{{"ts", index.Descending}}, Limit: 20},
			[]index.Definition{roomTS}, "scan index(messages: room asc, ts desc)"},
	} {
		p, err := BuildPlanWithStats(c.q, c.composites, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if p.String() != c.want {
			t.Errorf("%s: plan %s, want %s", c.name, p, c.want)
		}
	}
}

// TestNeedsIndexErrorGoldenParity pins the planner's NeedsIndexError
// behavior: these query shapes fail with the suggested composite, and
// the served shapes plan to their family.
func TestNeedsIndexErrorGoldenParity(t *testing.T) {
	coll := doc.MustCollection("/restaurants")
	cases := []struct {
		name       string
		q          *Query
		composites []index.Definition
		wantFields []index.Field
	}{
		{
			name: "eq plus mismatched order",
			q: &Query{Collection: coll,
				Predicates: []Predicate{{"city", Eq, doc.String("SF")}},
				Orders:     []Order{{"avgRating", index.Descending}}},
			wantFields: []index.Field{
				{Path: "city", Dir: index.Ascending},
				{Path: "avgRating", Dir: index.Descending}},
		},
		{
			name: "contains with order",
			q: &Query{Collection: coll,
				Predicates: []Predicate{{"tags", ArrayContains, doc.String("BBQ")}},
				Orders:     []Order{{"avgRating", index.Ascending}}},
			wantFields: []index.Field{
				{Path: "tags", Dir: index.Ascending},
				{Path: "avgRating", Dir: index.Ascending}},
		},
		{
			name: "multi-field order without composite",
			q: &Query{Collection: coll,
				Orders: []Order{{"city", index.Ascending}, {"avgRating", index.Descending}}},
			wantFields: []index.Field{
				{Path: "city", Dir: index.Ascending},
				{Path: "avgRating", Dir: index.Descending}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := BuildPlanWithStats(tc.q, tc.composites, nil, nil)
			var nie *NeedsIndexError
			if !errors.As(err, &nie) {
				t.Fatalf("BuildPlanWithStats(%s) err = %v, want NeedsIndexError", tc.q, err)
			}
			if status.CodeOf(err) != status.FailedPrecondition {
				t.Fatalf("status = %v, want FailedPrecondition", status.CodeOf(err))
			}
			if nie.Collection != "restaurants" {
				t.Fatalf("collection = %q", nie.Collection)
			}
			if len(nie.Fields) != len(tc.wantFields) {
				t.Fatalf("suggested fields = %v, want %v", nie.Fields, tc.wantFields)
			}
			for i := range nie.Fields {
				if nie.Fields[i] != tc.wantFields[i] {
					t.Fatalf("suggested fields = %v, want %v", nie.Fields, tc.wantFields)
				}
			}
		})
	}

	// Served shapes plan to the same family they always have.
	served := []struct {
		q    *Query
		want string
	}{
		{&Query{Collection: coll}, "entities"},
		{&Query{Collection: coll,
			Predicates: []Predicate{{"city", Eq, doc.String("SF")}}}, "auto"},
		{&Query{Collection: coll,
			Predicates: []Predicate{
				{"city", Eq, doc.String("SF")},
				{"type", Eq, doc.String("BBQ")}}}, "zigzag"},
		{&Query{Collection: coll,
			Orders: []Order{{"avgRating", index.Descending}}}, "auto"},
	}
	for _, tc := range served {
		p, err := BuildPlanWithStats(tc.q, nil, nil, nil)
		if err != nil {
			t.Fatalf("BuildPlanWithStats(%s, nil): %v", tc.q, err)
		}
		if p.Choice != tc.want {
			t.Fatalf("BuildPlanWithStats(%s, nil) choice = %q (%s), want %q", tc.q, p.Choice, p, tc.want)
		}
	}
}

// errAfterStore fails ScanIndex after a fixed number of rows, simulating
// cancellation mid-scan.
type errAfterStore struct {
	*memStore
	rows  int
	after int
}

var errScanCut = errors.New("scan cut")

func (e *errAfterStore) ScanIndex(ctx context.Context, lo, hi []byte, fn func(key, value []byte) bool) error {
	var err error
	serr := e.memStore.ScanIndex(ctx, lo, hi, func(k, v []byte) bool {
		if e.rows >= e.after {
			err = errScanCut
			return false
		}
		e.rows++
		return fn(k, v)
	})
	if serr != nil {
		return serr
	}
	return err
}

// TestCountBillsPartialScanOnError is the billing bugfix regression:
// ExecuteCount must report entries already visited when the scan dies
// mid-flight, on both the single-scan and zig-zag paths.
func TestCountBillsPartialScanOnError(t *testing.T) {
	m := newMemStore(nil, nil)
	seedRestaurants(m)
	q1 := &Query{Collection: doc.MustCollection("/restaurants"),
		Predicates: []Predicate{{"city", Eq, doc.String("SF")}}}
	p1, err := BuildPlanWithStats(q1, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cut := &errAfterStore{memStore: m, after: 5}
	res, err := p1.ExecuteCount(context.Background(), cut)
	if !errors.Is(err, errScanCut) {
		t.Fatalf("err = %v, want scan cut", err)
	}
	if res == nil || res.ScannedEntries != 5 {
		t.Fatalf("single-scan partial ScannedEntries = %+v, want 5", res)
	}

	q2 := &Query{Collection: doc.MustCollection("/restaurants"),
		Predicates: []Predicate{
			{"city", Eq, doc.String("SF")},
			{"type", Eq, doc.String("BBQ")}}}
	p2, err := BuildPlanWithStats(q2, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !p2.ZigZag() {
		t.Fatalf("plan = %s, want zigzag", p2)
	}
	cut = &errAfterStore{memStore: m, after: 10}
	res, err = p2.ExecuteCount(context.Background(), cut)
	if !errors.Is(err, errScanCut) {
		t.Fatalf("err = %v, want scan cut", err)
	}
	if res == nil || res.ScannedEntries == 0 {
		t.Fatalf("zig-zag partial ScannedEntries = %+v, want > 0", res)
	}

	// Context cancellation at the join loop likewise preserves the
	// partial count.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err = p2.ExecuteCount(ctx, m)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("nil result on cancellation")
	}
}
