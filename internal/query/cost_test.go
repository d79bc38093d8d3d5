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

// statsStore is memStore plus the index-cardinality statistics the
// backend maintains from commit-time entry diffs.
type statsStore struct {
	*memStore
	stats *index.Stats
}

func newStatsStore(composites []index.Definition, ex *index.Exemptions) *statsStore {
	return &statsStore{memStore: newMemStore(composites, ex), stats: index.NewStats()}
}

func (s *statsStore) put(d *doc.Document) {
	old := s.docs[d.Name.String()]
	rem, add := index.DiffEntries(nil, old, d, s.composites, s.ex)
	if old == nil {
		s.stats.ApplyDoc(d.Name.Collection().String(), 1)
	}
	s.stats.ApplyDiff(rem, add)
	s.memStore.put(d)
}

// seedABL1 reproduces the ABL1 zig-zag workload shape: cities and types
// assigned round-robin so every (city, type) pair holds n/16 documents
// while each single-field prefix holds n/4.
func seedABL1(s *statsStore, n int) {
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

// TestCostPlannerPicksCheapestOnABL1: with statistics available the
// planner must choose the composite single scan over the zig-zag join
// (the documented 8x entry gap), and the picked plan's actual visited
// entries must be <= every alternative's.
func TestCostPlannerPicksCheapestOnABL1(t *testing.T) {
	comp := index.CompositeDef("restaurants",
		index.Field{Path: "city", Dir: index.Ascending},
		index.Field{Path: "type", Dir: index.Ascending})
	s := newStatsStore([]index.Definition{comp}, nil)
	seedABL1(s, 800)

	q := &Query{
		Collection: doc.MustCollection("/restaurants"),
		Predicates: []Predicate{
			{"city", Eq, doc.String("SF")},
			{"type", Eq, doc.String("BBQ")},
		},
	}
	alts, err := EnumeratePlans(q, s.composites, nil, s.stats)
	if err != nil {
		t.Fatal(err)
	}
	if len(alts) < 3 {
		t.Fatalf("want composite, zigzag, and entities alternatives, got %d: %v", len(alts), altStrings(alts))
	}
	picked := alts[0].Plan
	if picked.Choice != "composite" || picked.ZigZag() {
		t.Fatalf("picked %s (%s), want single composite scan; alternatives: %v",
			picked, picked.Choice, altStrings(alts))
	}
	// The estimate must reflect the skew: ~n/16 for the composite
	// prefix vs ~2*(n/4) for the zig-zag.
	if picked.Cost <= 0 || picked.Cost > 100 {
		t.Fatalf("composite cost = %d, want ~50", picked.Cost)
	}
	for _, a := range alts[1:] {
		if a.Cost < picked.Cost {
			t.Fatalf("alternative %s cost %d beats picked %d", a.Plan, a.Cost, picked.Cost)
		}
	}

	// Every alternative returns the identical result set, and the
	// cost-picked plan actually visits the fewest entries.
	want := s.naive(q)
	pickedScanned := -1
	for _, a := range alts {
		res, err := a.Plan.Execute(context.Background(), s, nil)
		if err != nil {
			t.Fatalf("Execute(%s): %v", a.Plan, err)
		}
		assertSameDocs(t, q, res.Docs, want)
		if pickedScanned < 0 {
			pickedScanned = res.ScannedEntries
		} else if res.ScannedEntries < pickedScanned {
			t.Fatalf("alternative %s visited %d entries, picked plan visited %d",
				a.Plan, res.ScannedEntries, pickedScanned)
		}
	}

	// BuildPlanWithStats agrees with the head of the enumeration.
	p, err := BuildPlanWithStats(q, s.composites, nil, s.stats)
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != picked.String() {
		t.Fatalf("BuildPlanWithStats = %s, want %s", p, picked)
	}
}

func altStrings(alts []Alternative) []string {
	out := make([]string, len(alts))
	for i, a := range alts {
		out[i] = fmt.Sprintf("%s cost=%d", a.Plan, a.Cost)
	}
	return out
}

// TestEnumeratedAlternativesAgree is the property test: for randomized
// query shapes, every enumerated alternative executes to the identical
// result set.
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
	composites := []index.Definition{comp1, comp2, comp3}

	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 40; trial++ {
		s := newStatsStore(composites, nil)
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
		alts, err := EnumeratePlans(q, composites, nil, s.stats)
		if err != nil {
			var nie *NeedsIndexError
			if errors.As(err, &nie) {
				continue
			}
			t.Fatalf("trial %d: EnumeratePlans(%s): %v", trial, q, err)
		}
		want := s.naive(q)
		for _, a := range alts {
			res, err := a.Plan.Execute(context.Background(), s, nil)
			if err != nil {
				t.Fatalf("trial %d: Execute(%s): %v", trial, a.Plan, err)
			}
			assertSameDocs(t, q, res.Docs, want)
		}
	}
}

// TestNeedsIndexErrorGoldenParity pins the enumerator's NeedsIndexError
// behavior to the old greedy planner's: the same query shapes fail with
// the same suggested composite, and the same shapes still plan.
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
			for _, stats := range []Stats{nil, index.NewStats()} {
				_, err := BuildPlanWithStats(tc.q, tc.composites, nil, stats)
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
			}
		})
	}

	// Shapes the greedy planner served must still plan, with the same
	// plan family at zero statistics.
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

// TestEntitiesResidualScan: the Entities full-scan alternative filters
// predicates per document and bills every row visited, not every row
// matched.
func TestEntitiesResidualScan(t *testing.T) {
	s := newStatsStore(nil, nil)
	seedRestaurants(s.memStore)
	q := &Query{Collection: doc.MustCollection("/restaurants"),
		Predicates: []Predicate{{"city", Eq, doc.String("SF")}}}
	alts, err := EnumeratePlans(q, nil, nil, s.stats)
	if err != nil {
		t.Fatal(err)
	}
	var ent *Plan
	for _, a := range alts {
		if a.Plan.Choice == "entities" {
			ent = a.Plan
		}
	}
	if ent == nil {
		t.Fatalf("no entities alternative in %v", altStrings(alts))
	}
	if !ent.Residual {
		t.Fatal("entities alternative not marked residual")
	}
	res, err := ent.Execute(context.Background(), s, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameDocs(t, q, res.Docs, s.naive(q))
	if res.ScannedEntries != 60 {
		t.Fatalf("ScannedEntries = %d, want 60 (every row visited)", res.ScannedEntries)
	}
	cr, err := ent.ExecuteCount(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Count != int64(len(s.naive(q))) {
		t.Fatalf("residual count = %d, want %d", cr.Count, len(s.naive(q)))
	}
	if cr.ScannedEntries != 60 {
		t.Fatalf("count ScannedEntries = %d, want 60", cr.ScannedEntries)
	}
}
