package query

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"firestore/internal/doc"
	"firestore/internal/index"
)

// memStore is an in-memory Storage for executor tests: documents plus
// index entries maintained with index.Entries, mirroring what the backend
// does over Spanner.
type memStore struct {
	docs       map[string]*doc.Document
	idx        map[string]string // entry key -> doc name
	composites []index.Definition
	ex         *index.Exemptions
}

func newMemStore(composites []index.Definition, ex *index.Exemptions) *memStore {
	return &memStore{
		docs:       map[string]*doc.Document{},
		idx:        map[string]string{},
		composites: composites,
		ex:         ex,
	}
}

func (m *memStore) put(d *doc.Document) {
	if old, ok := m.docs[d.Name.String()]; ok {
		for _, k := range index.Entries(old, m.composites, m.ex) {
			delete(m.idx, string(k))
		}
	}
	m.docs[d.Name.String()] = d
	for _, k := range index.Entries(d, m.composites, m.ex) {
		m.idx[string(k)] = d.Name.String()
	}
}

func (m *memStore) ScanIndex(_ context.Context, lo, hi []byte, fn func(key, value []byte) bool) error {
	keys := make([]string, 0, len(m.idx))
	for k := range m.idx {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		kb := []byte(k)
		if lo != nil && bytes.Compare(kb, lo) < 0 {
			continue
		}
		if hi != nil && bytes.Compare(kb, hi) >= 0 {
			break
		}
		if !fn(kb, []byte(m.idx[k])) {
			break
		}
	}
	return nil
}

func (m *memStore) ScanCollection(_ context.Context, c doc.CollectionPath, startAfterID string, fn func(*doc.Document) bool) error {
	var names []string
	for n, d := range m.docs {
		if c.Contains(d.Name) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		d := m.docs[n]
		if startAfterID != "" && d.Name.ID() <= startAfterID {
			continue
		}
		if !fn(d) {
			break
		}
	}
	return nil
}

func (m *memStore) GetDocument(_ context.Context, name doc.Name) (*doc.Document, error) {
	return m.docs[name.String()], nil
}

// evaluate is q's answer over every stored document by Evaluate,
// projected as Execute projects: the reference a plan must agree with.
func (m *memStore) evaluate(q *Query) []*doc.Document {
	all := make([]*doc.Document, 0, len(m.docs))
	for _, d := range m.docs {
		all = append(all, d)
	}
	out := Evaluate(q, all, func(d *doc.Document) *doc.Document { return d })
	for i, d := range out {
		out[i] = q.Project(d)
	}
	return out
}

func restaurant(id, city, typ string, avgRating float64, numRatings int64) *doc.Document {
	n := doc.MustName("/restaurants/" + id)
	return doc.New(n, map[string]doc.Value{
		"name":       doc.String("R" + id),
		"city":       doc.String(city),
		"type":       doc.String(typ),
		"avgRating":  doc.Double(avgRating),
		"numRatings": doc.Int(numRatings),
		"tags":       doc.Array(doc.String(typ), doc.String(city)),
	})
}

func seedRestaurants(m *memStore) {
	cities := []string{"SF", "NY", "LA"}
	types := []string{"BBQ", "Sushi", "Pizza"}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		m.put(restaurant(
			fmt.Sprintf("r%03d", i),
			cities[rng.Intn(len(cities))],
			types[rng.Intn(len(types))],
			float64(rng.Intn(50))/10,
			int64(rng.Intn(200)),
		))
	}
}

func runPlan(t *testing.T, m *memStore, q *Query) []*doc.Document {
	t.Helper()
	plan, err := BuildPlanWithStats(q, m.composites, m.ex, nil)
	if err != nil {
		t.Fatalf("BuildPlanWithStats(%s, nil): %v", q, err)
	}
	res, err := plan.Execute(context.Background(), m, nil)
	if err != nil {
		t.Fatalf("Execute(%s): %v", q, err)
	}
	return res.Docs
}

func assertSameDocs(t *testing.T, q *Query, got, want []*doc.Document) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d docs, want %d\n got: %v\nwant: %v", q, len(got), len(want), names(got), names(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: doc %d = %s, want %s", q, i, got[i], want[i])
		}
	}
}

func names(ds []*doc.Document) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.Name.String()
	}
	return out
}

func TestValidate(t *testing.T) {
	coll := doc.MustCollection("/restaurants")
	ok := &Query{Collection: coll, Predicates: []Predicate{{Path: "a", Op: Gt, Value: doc.Int(1)}, {Path: "a", Op: Lt, Value: doc.Int(9)}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("two inequalities on one field should validate: %v", err)
	}
	bad := &Query{Collection: coll, Predicates: []Predicate{{Path: "a", Op: Gt, Value: doc.Int(1)}, {Path: "b", Op: Lt, Value: doc.Int(9)}}}
	if err := bad.Validate(); !errors.Is(err, ErrMultipleInequalities) {
		t.Errorf("Validate = %v, want ErrMultipleInequalities", err)
	}
	bad2 := &Query{
		Collection: coll,
		Predicates: []Predicate{{Path: "a", Op: Gt, Value: doc.Int(1)}},
		Orders:     []Order{{Path: "b", Dir: index.Ascending}},
	}
	if err := bad2.Validate(); !errors.Is(err, ErrInequalityOrder) {
		t.Errorf("Validate = %v, want ErrInequalityOrder", err)
	}
	if err := (&Query{}).Validate(); !errors.Is(err, ErrNoCollection) {
		t.Errorf("Validate = %v, want ErrNoCollection", err)
	}
}

func TestMatches(t *testing.T) {
	d := restaurant("one", "SF", "BBQ", 4.5, 10)
	coll := doc.MustCollection("/restaurants")
	cases := []struct {
		q    Query
		want bool
	}{
		{Query{Collection: coll}, true},
		{Query{Collection: coll, Predicates: []Predicate{{"city", Eq, doc.String("SF")}}}, true},
		{Query{Collection: coll, Predicates: []Predicate{{"city", Eq, doc.String("NY")}}}, false},
		{Query{Collection: coll, Predicates: []Predicate{{"numRatings", Gt, doc.Int(5)}}}, true},
		{Query{Collection: coll, Predicates: []Predicate{{"numRatings", Gt, doc.Int(10)}}}, false},
		{Query{Collection: coll, Predicates: []Predicate{{"numRatings", Ge, doc.Int(10)}}}, true},
		{Query{Collection: coll, Predicates: []Predicate{{"numRatings", Gt, doc.String("5")}}}, false}, // type mismatch
		{Query{Collection: coll, Predicates: []Predicate{{"tags", ArrayContains, doc.String("BBQ")}}}, true},
		{Query{Collection: coll, Predicates: []Predicate{{"tags", ArrayContains, doc.String("nope")}}}, false},
		{Query{Collection: coll, Predicates: []Predicate{{"city", ArrayContains, doc.String("SF")}}}, false}, // not an array
		{Query{Collection: coll, Orders: []Order{{"missing", index.Ascending}}}, false},                      // order implies existence
		{Query{Collection: doc.MustCollection("/reviews")}, false},
		{Query{Collection: coll, Predicates: []Predicate{{"missing", Eq, doc.Null()}}}, false},
	}
	for _, c := range cases {
		if got := c.q.Matches(d); got != c.want {
			t.Errorf("%s Matches = %v, want %v", &c.q, got, c.want)
		}
	}
	if (&Query{Collection: coll}).Matches(nil) {
		t.Error("nil doc matched")
	}
}

func TestSingleFieldEquality(t *testing.T) {
	m := newMemStore(nil, nil)
	seedRestaurants(m)
	q := &Query{
		Collection: doc.MustCollection("/restaurants"),
		Predicates: []Predicate{{"city", Eq, doc.String("SF")}},
	}
	assertSameDocs(t, q, runPlan(t, m, q), m.evaluate(q))
}

func TestZigZagJoinTwoEqualities(t *testing.T) {
	// The paper's "city=SF and type=BBQ" example: joins automatic
	// single-field indexes.
	m := newMemStore(nil, nil)
	seedRestaurants(m)
	q := &Query{
		Collection: doc.MustCollection("/restaurants"),
		Predicates: []Predicate{
			{"city", Eq, doc.String("SF")},
			{"type", Eq, doc.String("BBQ")},
		},
	}
	plan, err := BuildPlanWithStats(q, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.ZigZag() || len(plan.Scans) != 2 {
		t.Fatalf("plan = %s, want 2-way zigzag", plan)
	}
	assertSameDocs(t, q, runPlan(t, m, q), m.evaluate(q))
}

func TestInequalityWithImplicitOrder(t *testing.T) {
	m := newMemStore(nil, nil)
	seedRestaurants(m)
	q := &Query{
		Collection: doc.MustCollection("/restaurants"),
		Predicates: []Predicate{{"numRatings", Gt, doc.Int(100)}},
	}
	assertSameDocs(t, q, runPlan(t, m, q), m.evaluate(q))
}

func TestInequalityRangeBothEnds(t *testing.T) {
	m := newMemStore(nil, nil)
	seedRestaurants(m)
	q := &Query{
		Collection: doc.MustCollection("/restaurants"),
		Predicates: []Predicate{
			{"numRatings", Ge, doc.Int(50)},
			{"numRatings", Lt, doc.Int(150)},
		},
	}
	assertSameDocs(t, q, runPlan(t, m, q), m.evaluate(q))
}

func TestOrderByDescending(t *testing.T) {
	m := newMemStore(nil, nil)
	seedRestaurants(m)
	q := &Query{
		Collection: doc.MustCollection("/restaurants"),
		Orders:     []Order{{"avgRating", index.Descending}},
		Limit:      10,
	}
	assertSameDocs(t, q, runPlan(t, m, q), m.evaluate(q))
}

func TestInequalityDescendingOrder(t *testing.T) {
	m := newMemStore(nil, nil)
	seedRestaurants(m)
	q := &Query{
		Collection: doc.MustCollection("/restaurants"),
		Predicates: []Predicate{{"avgRating", Gt, doc.Double(2.5)}},
		Orders:     []Order{{"avgRating", index.Descending}},
	}
	assertSameDocs(t, q, runPlan(t, m, q), m.evaluate(q))
}

func TestCompositeSingleScan(t *testing.T) {
	// The paper's "city=SF and type=BBQ order by avgRating desc" with a
	// covering composite index.
	comp := index.CompositeDef("restaurants",
		index.Field{Path: "city", Dir: index.Ascending},
		index.Field{Path: "type", Dir: index.Ascending},
		index.Field{Path: "avgRating", Dir: index.Descending})
	m := newMemStore([]index.Definition{comp}, nil)
	seedRestaurants(m)
	q := &Query{
		Collection: doc.MustCollection("/restaurants"),
		Predicates: []Predicate{
			{"city", Eq, doc.String("SF")},
			{"type", Eq, doc.String("BBQ")},
		},
		Orders: []Order{{"avgRating", index.Descending}},
	}
	plan, err := BuildPlanWithStats(q, m.composites, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.ZigZag() {
		t.Fatalf("plan = %s, want single composite scan", plan)
	}
	assertSameDocs(t, q, runPlan(t, m, q), m.evaluate(q))
}

func TestZigZagCompositesWithSharedSuffix(t *testing.T) {
	// The paper's "city=NY and type=BBQ order by avgRating desc" example:
	// joins (city asc, avgRating desc) and (type asc, avgRating desc).
	c1 := index.CompositeDef("restaurants",
		index.Field{Path: "city", Dir: index.Ascending},
		index.Field{Path: "avgRating", Dir: index.Descending})
	c2 := index.CompositeDef("restaurants",
		index.Field{Path: "type", Dir: index.Ascending},
		index.Field{Path: "avgRating", Dir: index.Descending})
	m := newMemStore([]index.Definition{c1, c2}, nil)
	seedRestaurants(m)
	q := &Query{
		Collection: doc.MustCollection("/restaurants"),
		Predicates: []Predicate{
			{"city", Eq, doc.String("NY")},
			{"type", Eq, doc.String("BBQ")},
		},
		Orders: []Order{{"avgRating", index.Descending}},
	}
	plan, err := BuildPlanWithStats(q, m.composites, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.ZigZag() {
		t.Fatalf("plan = %s, want zigzag", plan)
	}
	assertSameDocs(t, q, runPlan(t, m, q), m.evaluate(q))
}

func TestNeedsIndexError(t *testing.T) {
	q := &Query{
		Collection: doc.MustCollection("/restaurants"),
		Predicates: []Predicate{{"city", Eq, doc.String("SF")}},
		Orders:     []Order{{"avgRating", index.Descending}},
	}
	_, err := BuildPlanWithStats(q, nil, nil, nil)
	var nie *NeedsIndexError
	if !errors.As(err, &nie) {
		t.Fatalf("BuildPlanWithStats = %v, want NeedsIndexError", err)
	}
	if nie.Collection != "restaurants" || len(nie.Fields) != 2 {
		t.Fatalf("suggestion = %+v", nie)
	}
	if nie.Error() == "" {
		t.Fatal("empty message")
	}
}

func TestExemptedFieldFailsQuery(t *testing.T) {
	var ex index.Exemptions
	ex.Exempt("restaurants", "city")
	q := &Query{
		Collection: doc.MustCollection("/restaurants"),
		Predicates: []Predicate{{"city", Eq, doc.String("SF")}},
	}
	if _, err := BuildPlanWithStats(q, nil, &ex, nil); err == nil {
		t.Fatal("query on exempted field planned successfully")
	}
}

func TestArrayContains(t *testing.T) {
	m := newMemStore(nil, nil)
	seedRestaurants(m)
	q := &Query{
		Collection: doc.MustCollection("/restaurants"),
		Predicates: []Predicate{{"tags", ArrayContains, doc.String("BBQ")}},
	}
	assertSameDocs(t, q, runPlan(t, m, q), m.evaluate(q))
}

func TestArrayContainsPlusEquality(t *testing.T) {
	m := newMemStore(nil, nil)
	seedRestaurants(m)
	q := &Query{
		Collection: doc.MustCollection("/restaurants"),
		Predicates: []Predicate{
			{"tags", ArrayContains, doc.String("BBQ")},
			{"city", Eq, doc.String("SF")},
		},
	}
	assertSameDocs(t, q, runPlan(t, m, q), m.evaluate(q))
}

func TestBareCollectionScan(t *testing.T) {
	m := newMemStore(nil, nil)
	seedRestaurants(m)
	q := &Query{Collection: doc.MustCollection("/restaurants")}
	assertSameDocs(t, q, runPlan(t, m, q), m.evaluate(q))
}

func TestOffsetAndLimit(t *testing.T) {
	m := newMemStore(nil, nil)
	seedRestaurants(m)
	q := &Query{
		Collection: doc.MustCollection("/restaurants"),
		Predicates: []Predicate{{"city", Eq, doc.String("SF")}},
		Offset:     3,
		Limit:      5,
	}
	assertSameDocs(t, q, runPlan(t, m, q), m.evaluate(q))
}

func TestResumeToken(t *testing.T) {
	m := newMemStore(nil, nil)
	seedRestaurants(m)
	for _, q := range []*Query{
		{Collection: doc.MustCollection("/restaurants"),
			Predicates: []Predicate{{"city", Eq, doc.String("SF")}}, Limit: 4},
		// A range predicate: the single scan's Lo is past its prefix, and
		// each page restarts the scan after its token, never below Lo.
		{Collection: doc.MustCollection("/restaurants"),
			Predicates: []Predicate{{"numRatings", Gt, doc.Int(100)}}, Limit: 4},
	} {
		full := m.evaluate(&Query{Collection: q.Collection, Predicates: q.Predicates})
		plan, err := BuildPlanWithStats(q, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		var got []*doc.Document
		var resume []byte
		for {
			res, err := plan.Execute(context.Background(), m, resume)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, res.Docs...)
			if res.Resume == nil {
				break
			}
			resume = res.Resume
		}
		assertSameDocs(t, q, got, full)

		// A token below the scan's range resumes at its start.
		res, err := plan.Execute(context.Background(), m, []byte{})
		if err != nil {
			t.Fatal(err)
		}
		assertSameDocs(t, q, res.Docs, full[:q.Limit])
	}
}

func TestResumeTokenEntitiesScan(t *testing.T) {
	m := newMemStore(nil, nil)
	seedRestaurants(m)
	q := &Query{Collection: doc.MustCollection("/restaurants"), Limit: 7}
	full := m.evaluate(&Query{Collection: q.Collection})
	plan, err := BuildPlanWithStats(q, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []*doc.Document
	var resume []byte
	for {
		res, err := plan.Execute(context.Background(), m, resume)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, res.Docs...)
		if res.Resume == nil {
			break
		}
		resume = res.Resume
	}
	assertSameDocs(t, q, got, full)
}

func TestProjection(t *testing.T) {
	m := newMemStore(nil, nil)
	seedRestaurants(m)
	q := &Query{
		Collection: doc.MustCollection("/restaurants"),
		Predicates: []Predicate{{"city", Eq, doc.String("SF")}},
		Projection: []doc.FieldPath{"name", "avgRating"},
	}
	docs := runPlan(t, m, q)
	if len(docs) == 0 {
		t.Fatal("no results")
	}
	for _, d := range docs {
		if len(d.Fields) != 2 {
			t.Fatalf("projected doc has fields %v", d.FieldNames())
		}
	}
	assertSameDocs(t, q, docs, m.evaluate(q))
}

// TestProjectSharesNothingMutable: Project copies no value — a stored
// document is immutable, so the projection shares its leaves — but every
// map it builds to nest a dotted path in is its own, so projecting never
// changes the source, and an empty projection is the source itself.
func TestProjectSharesNothingMutable(t *testing.T) {
	src := doc.New(doc.MustName("/restaurants/one"), map[string]doc.Value{
		"name": doc.String("Burger Garden"),
		"tags": doc.Array(doc.String("bbq")),
		"address": doc.Map(map[string]doc.Value{
			"city": doc.String("SF"), "zip": doc.Int(94105),
			"geo": doc.Map(map[string]doc.Value{"lat": doc.Double(37.7), "lng": doc.Double(-122.4)}),
		}),
	})
	src.CreateTime, src.UpdateTime = 3, 9
	before := doc.Marshal(src)
	if got := (&Query{}).Project(src); got != src {
		t.Error("empty projection did not return the document itself")
	}
	q := &Query{Projection: []doc.FieldPath{"tags", "address.zip", "address.geo.lat", "address.geo.lat.deeper", "missing.x", "name"}}
	got := q.Project(src)
	want := doc.New(src.Name, map[string]doc.Value{
		"name": doc.String("Burger Garden"),
		"tags": doc.Array(doc.String("bbq")),
		"address": doc.Map(map[string]doc.Value{
			"zip": doc.Int(94105), "geo": doc.Map(map[string]doc.Value{"lat": doc.Double(37.7)}),
		}),
	})
	if !got.Equal(want) || got.CreateTime != 3 || got.UpdateTime != 9 {
		t.Errorf("Project = %v (create %d, update %d), want %v", got, got.CreateTime, got.UpdateTime, want)
	}
	// Writing through every map the projection built leaves the source
	// as it was.
	got.Fields["extra"] = doc.Null()
	got.Fields["address"].MapVal()["city"] = doc.String("LA")
	got.Fields["address"].MapVal()["geo"].MapVal()["lng"] = doc.Double(0)
	if after := doc.Marshal(src); !bytes.Equal(before, after) {
		t.Errorf("projecting changed the source document:\n%x\n%x", before, after)
	}
	// A path under a projected map is that map's business, whichever of
	// the two the projection names first: the whole map comes back, and
	// since it is the source's own, concurrent projections (every reader
	// of a cached document) must not write to it, not even the value it
	// holds. The race detector is the judge.
	var wg sync.WaitGroup
	for _, paths := range [][]doc.FieldPath{
		{"address", "address.zip", "address.geo.lat"},
		{"address.zip", "address", "address.geo.lat"},
		{"address.geo.lat", "address.geo", "address.zip", "address"},
		{"address", "address"},
	} {
		nested := &Query{Projection: paths}
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					if p := nested.Project(src); len(p.Fields) != 1 || !doc.Equal(p.Fields["address"], src.Fields["address"]) {
						t.Errorf("Project(%v) = %v", paths, p)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	// A prefix of a name is not an ancestor.
	onlyLat := doc.Map(map[string]doc.Value{"geo": doc.Map(map[string]doc.Value{"lat": doc.Double(37.7)})})
	if p := (&Query{Projection: []doc.FieldPath{"address.geo.lat", "address.ge"}}).Project(src); !doc.Equal(p.Fields["address"], onlyLat) {
		t.Errorf("Project = %v", p)
	}
}

func TestSubCollectionIsolation(t *testing.T) {
	// Indexes are shared per collection ID, but a query on one parent's
	// sub-collection must not see siblings'.
	m := newMemStore(nil, nil)
	for _, parent := range []string{"one", "two"} {
		for i := 0; i < 5; i++ {
			n := doc.MustName(fmt.Sprintf("/restaurants/%s/ratings/%d", parent, i))
			m.put(doc.New(n, map[string]doc.Value{"rating": doc.Int(int64(i))}))
		}
	}
	q := &Query{
		Collection: doc.MustCollection("/restaurants/one/ratings"),
		Predicates: []Predicate{{"rating", Ge, doc.Int(0)}},
	}
	docs := runPlan(t, m, q)
	if len(docs) != 5 {
		t.Fatalf("got %d docs, want 5", len(docs))
	}
	for _, d := range docs {
		if d.Name.Segments()[1] != "one" {
			t.Fatalf("leaked sibling doc %s", d.Name)
		}
	}
}

func TestQueryCompareAndString(t *testing.T) {
	a := restaurant("a", "SF", "BBQ", 4.0, 10)
	b := restaurant("b", "SF", "BBQ", 5.0, 10)
	q := &Query{
		Collection: doc.MustCollection("/restaurants"),
		Orders:     []Order{{"avgRating", index.Descending}},
	}
	if q.Compare(a, b) != 1 {
		t.Error("desc order: higher rating should come first")
	}
	if q.Compare(a, a) != 0 {
		t.Error("self compare")
	}
	q2 := &Query{Collection: doc.MustCollection("/restaurants")}
	if q2.Compare(a, b) != -1 {
		t.Error("name tiebreak")
	}
	rating := func(v float64) []doc.Value { return []doc.Value{doc.Double(v), doc.String("/restaurants/r1")} }
	for _, c := range []struct {
		q    Query
		want string
	}{
		{Query{
			Collection: doc.MustCollection("/restaurants"),
			Predicates: []Predicate{{"city", Eq, doc.String("SF")}},
			Orders:     []Order{{"avgRating", index.Descending}},
			Limit:      10,
			Offset:     2,
			Projection: []doc.FieldPath{"name"},
		}, `select name from /restaurants where city == "SF" order by avgRating desc limit 10 offset 2`},
		{Query{
			Collection: doc.MustCollection("/restaurants"),
			Orders:     []Order{{"avgRating", index.Ascending}},
			Start:      &Cursor{Values: rating(3.5), Inclusive: true},
			End:        &Cursor{Values: rating(4.5)},
		}, `select * from /restaurants order by avgRating asc start at (3.5, "/restaurants/r1") end before (4.5, "/restaurants/r1")`},
		{Query{
			Collection: doc.MustCollection("/restaurants"),
			Start:      &Cursor{Values: rating(3.5)},
			End:        &Cursor{Values: rating(4.5), Inclusive: true},
		}, `select * from /restaurants start after (3.5, "/restaurants/r1") end at (4.5, "/restaurants/r1")`},
	} {
		if s := c.q.String(); s != c.want {
			t.Errorf("String = %q, want %q", s, c.want)
		}
	}
}

// TestRandomizedAgainstNaive cross-checks the planner+executor against
// naive evaluation over many random queries and datasets.
func TestRandomizedAgainstNaive(t *testing.T) {
	comp1 := index.CompositeDef("restaurants",
		index.Field{Path: "city", Dir: index.Ascending},
		index.Field{Path: "avgRating", Dir: index.Descending})
	comp2 := index.CompositeDef("restaurants",
		index.Field{Path: "type", Dir: index.Ascending},
		index.Field{Path: "avgRating", Dir: index.Descending})
	comp3 := index.CompositeDef("restaurants",
		index.Field{Path: "city", Dir: index.Ascending},
		index.Field{Path: "numRatings", Dir: index.Ascending})
	composites := []index.Definition{comp1, comp2, comp3}

	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		m := newMemStore(composites, nil)
		for i := 0; i < 30; i++ {
			m.put(restaurant(
				fmt.Sprintf("r%02d", i),
				[]string{"SF", "NY"}[rng.Intn(2)],
				[]string{"BBQ", "Pizza"}[rng.Intn(2)],
				float64(rng.Intn(20))/4,
				int64(rng.Intn(20)),
			))
		}
		q := randomQuery(rng)
		plan, err := BuildPlanWithStats(q, composites, nil, nil)
		if err != nil {
			var nie *NeedsIndexError
			if errors.As(err, &nie) {
				continue // legitimately unplannable without more indexes
			}
			t.Fatalf("trial %d: BuildPlanWithStats(%s, nil): %v", trial, q, err)
		}
		res, err := plan.Execute(context.Background(), m, nil)
		if err != nil {
			t.Fatalf("trial %d: Execute(%s): %v", trial, q, err)
		}
		assertSameDocs(t, q, res.Docs, m.evaluate(q))
	}
}

func randomQuery(rng *rand.Rand) *Query {
	q := &Query{Collection: doc.MustCollection("/restaurants")}
	if rng.Intn(2) == 0 {
		q.Predicates = append(q.Predicates, Predicate{"city", Eq, doc.String([]string{"SF", "NY"}[rng.Intn(2)])})
	}
	if rng.Intn(2) == 0 {
		q.Predicates = append(q.Predicates, Predicate{"type", Eq, doc.String([]string{"BBQ", "Pizza"}[rng.Intn(2)])})
	}
	switch rng.Intn(4) {
	case 0:
		q.Predicates = append(q.Predicates, Predicate{"numRatings", Gt, doc.Int(int64(rng.Intn(15)))})
	case 1:
		q.Predicates = append(q.Predicates,
			Predicate{"numRatings", Ge, doc.Int(int64(rng.Intn(8)))},
			Predicate{"numRatings", Le, doc.Int(int64(8 + rng.Intn(8)))})
	case 2:
		q.Orders = []Order{{"avgRating", index.Descending}}
	}
	if rng.Intn(3) == 0 {
		q.Limit = 1 + rng.Intn(10)
	}
	if rng.Intn(4) == 0 {
		q.Offset = rng.Intn(5)
	}
	return q
}

func BenchmarkZigZagJoin(b *testing.B) {
	m := newMemStore(nil, nil)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		m.put(restaurant(fmt.Sprintf("r%05d", i),
			[]string{"SF", "NY", "LA"}[rng.Intn(3)],
			[]string{"BBQ", "Sushi"}[rng.Intn(2)],
			4, 10))
	}
	q := &Query{
		Collection: doc.MustCollection("/restaurants"),
		Predicates: []Predicate{
			{"city", Eq, doc.String("SF")},
			{"type", Eq, doc.String("BBQ")},
		},
	}
	plan, err := BuildPlanWithStats(q, nil, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Execute(context.Background(), m, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCountMatchesExecute: for every plan family and offset/limit, COUNT
// equals what an Execute drain returns (following resume tokens until the
// limit, as the SDK iterator does), and a limited COUNT stops where the
// query stops: a pushed scan reads no more than offset+limit entries,
// and a zig-zag join, whose legs read whole chunks, no more than the
// Execute page that returns those rows.
func TestCountMatchesExecute(t *testing.T) {
	comp := index.CompositeDef("restaurants",
		index.Field{Path: "city", Dir: index.Ascending},
		index.Field{Path: "avgRating", Dir: index.Descending})
	m := newMemStore([]index.Definition{comp}, nil)
	seedRestaurants(m)
	families := []struct {
		choice string
		q      Query
	}{
		{"entities", Query{}},
		{"auto", Query{Predicates: []Predicate{{"numRatings", Gt, doc.Int(100)}}}},
		{"composite", Query{Predicates: []Predicate{{"city", Eq, doc.String("SF")}},
			Orders: []Order{{"avgRating", index.Descending}}}},
		{"zigzag", Query{Predicates: []Predicate{{"city", Eq, doc.String("SF")}, {"type", Eq, doc.String("BBQ")}}}},
	}
	for _, f := range families {
		for _, ol := range [][2]int{{0, 0}, {0, 3}, {2, 0}, {2, 3}, {0, 100}, {50, 5}} {
			q := f.q
			q.Collection = doc.MustCollection("/restaurants")
			q.Offset, q.Limit = ol[0], ol[1]
			plan, err := BuildPlanWithStats(&q, m.composites, nil, nil)
			if err != nil {
				t.Fatalf("BuildPlanWithStats(%s, nil): %v", &q, err)
			}
			if plan.Choice != f.choice {
				t.Fatalf("%s: plan %s, want %s", &q, plan.Choice, f.choice)
			}
			drained, firstPage := 0, -1
			var resume []byte
			for {
				res, err := plan.Execute(context.Background(), m, resume)
				if err != nil {
					t.Fatalf("Execute(%s): %v", &q, err)
				}
				if firstPage < 0 {
					firstPage = res.ScannedEntries
				}
				drained += len(res.Docs)
				if res.Resume == nil || (q.Limit > 0 && drained >= q.Limit) {
					break
				}
				resume = res.Resume
			}
			got, err := plan.ExecuteCount(context.Background(), m)
			if err != nil {
				t.Fatalf("ExecuteCount(%s): %v", &q, err)
			}
			if got.Count != int64(drained) || got.Count != int64(len(m.evaluate(&q))) {
				t.Errorf("%s: count = %d, Execute returned %d, want %d", &q, got.Count, drained, len(m.evaluate(&q)))
			}
			if got.Count > 0 && got.ScannedEntries == 0 {
				t.Errorf("%s: no scan work reported", &q)
			}
			bound := q.Offset + q.Limit
			if plan.ZigZag() {
				bound = firstPage
			}
			if q.Limit > 0 && got.ScannedEntries > bound {
				t.Errorf("%s: count read %d entries, want <= %d", &q, got.ScannedEntries, bound)
			}
		}
	}
}
