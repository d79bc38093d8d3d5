package query

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"firestore/internal/doc"
	"firestore/internal/index"
)

// TestSameFieldPredicatesAgainstNaive: every predicate binds. Two
// equalities on one field that disagree match nothing, several
// inequalities on one field keep the tightest bound on each side, and
// inequalities whose operands differ in type match nothing — in Execute
// and in COUNT alike.
func TestSameFieldPredicatesAgainstNaive(t *testing.T) {
	cityRatings := index.CompositeDef("restaurants",
		index.Field{Path: "city", Dir: index.Ascending},
		index.Field{Path: "numRatings", Dir: index.Ascending})
	cityRatingsDesc := index.CompositeDef("restaurants",
		index.Field{Path: "city", Dir: index.Ascending},
		index.Field{Path: "numRatings", Dir: index.Descending})
	composites := []index.Definition{cityRatings, cityRatingsDesc}
	m := newMemStore(composites, nil)
	for i := 0; i < 20; i++ {
		m.put(restaurant(fmt.Sprintf("r%02d", i), []string{"SF", "NY"}[i%2], []string{"BBQ", "Pizza"}[i/2%2], 4, int64(i)))
	}
	planned := 0
	check := func(q *Query) {
		t.Helper()
		plan, err := BuildPlanWithStats(q, composites, nil, nil)
		var nie *NeedsIndexError
		if errors.As(err, &nie) {
			return
		}
		if err != nil {
			t.Fatalf("BuildPlanWithStats(%s): %v", q, err)
		}
		planned++
		want := m.evaluate(q)
		res, err := plan.Execute(context.Background(), m, nil)
		if err != nil {
			t.Fatalf("Execute(%s): %v", q, err)
		}
		assertSameDocs(t, q, res.Docs, want)
		count, err := plan.ExecuteCount(context.Background(), m)
		if err != nil || count.Count != int64(len(want)) {
			t.Fatalf("%s: COUNT = %+v (%v), want %d", q, count, err, len(want))
		}
	}
	coll := doc.MustCollection("/restaurants")
	for _, c := range []struct {
		preds []Predicate
		want  int
	}{
		{[]Predicate{{"city", Eq, doc.String("SF")}, {"city", Eq, doc.String("NY")}}, 0},
		{[]Predicate{{"numRatings", Gt, doc.Int(10)}, {"numRatings", Gt, doc.Int(5)}}, 9},
		{[]Predicate{{"numRatings", Lt, doc.Int(5)}, {"numRatings", Lt, doc.Int(10)}}, 5},
	} {
		q := &Query{Collection: coll, Predicates: c.preds}
		if n := len(m.evaluate(q)); n != c.want {
			t.Fatalf("%s: naive returns %d rows, want %d", q, n, c.want)
		}
		check(q)
	}

	// Random conjunctions of duplicate and conflicting predicates on one
	// field, alone or behind an equality, in either sort direction.
	rng := rand.New(rand.NewSource(53))
	ops := []Operator{Lt, Le, Gt, Ge}
	for trial := 0; trial < 300; trial++ {
		q := &Query{Collection: coll}
		if rng.Intn(2) == 0 {
			for n := 2 + rng.Intn(2); n > 0; n-- {
				q.Predicates = append(q.Predicates, Predicate{"city", Eq, doc.String([]string{"SF", "NY"}[rng.Intn(2)])})
			}
			if rng.Intn(2) == 0 {
				q.Predicates = append(q.Predicates, Predicate{"type", Eq, doc.String([]string{"BBQ", "Pizza"}[rng.Intn(2)])})
			}
		} else {
			if rng.Intn(2) == 0 {
				q.Predicates = append(q.Predicates, Predicate{"city", Eq, doc.String([]string{"SF", "NY"}[rng.Intn(2)])})
			}
			for n := 2 + rng.Intn(3); n > 0; n-- {
				v := doc.Int(int64(rng.Intn(22) - 1))
				if rng.Intn(8) == 0 {
					v = doc.String("x") // another type: the conjunction matches nothing
				}
				q.Predicates = append(q.Predicates, Predicate{"numRatings", ops[rng.Intn(len(ops))], v})
			}
			if rng.Intn(2) == 0 {
				q.Orders = []Order{{"numRatings", index.Descending}}
			}
		}
		rng.Shuffle(len(q.Predicates), func(i, j int) { q.Predicates[i], q.Predicates[j] = q.Predicates[j], q.Predicates[i] })
		check(q)
	}
	if planned < 250 {
		t.Fatalf("only %d of 303 queries planned", planned)
	}
}

// TestBindIsValueFree: a shape planned for one query binds another query
// of its shape — other values, its conjuncts in another order — to the
// plan BuildPlanWithStats makes for that query, scan for scan. The
// queries are randomQuery's and the benchmark's query_mix shapes.
func TestBindIsValueFree(t *testing.T) {
	cityRating := index.CompositeDef("restaurants",
		index.Field{Path: "city", Dir: index.Ascending},
		index.Field{Path: "avgRating", Dir: index.Descending})
	cityNum := index.CompositeDef("restaurants",
		index.Field{Path: "city", Dir: index.Ascending},
		index.Field{Path: "numRatings", Dir: index.Ascending})
	composites := []index.Definition{cityRating, cityNum}
	restaurants := doc.MustCollection("/restaurants")
	city := Predicate{"city", Eq, doc.String("SF")}
	queries := []*Query{
		{Collection: restaurants, Predicates: []Predicate{city}, Limit: 20},
		{Collection: restaurants, Predicates: []Predicate{city, {"category", Eq, doc.String("bbq")}}},
		{Collection: restaurants, Predicates: []Predicate{city}, Orders: []Order{{"avgRating", index.Descending}}, Limit: 20},
		{Collection: restaurants, Predicates: []Predicate{city}},
		{Collection: restaurants, Predicates: []Predicate{{"tags", ArrayContains, doc.String("BBQ")}, {"tags", ArrayContains, doc.String("SF")}}},
	}
	rng := rand.New(rand.NewSource(5301))
	for len(queries) < 200 {
		queries = append(queries, randomQuery(rng))
	}
	revalue := func(q *Query) *Query {
		r := *q
		r.Predicates = make([]Predicate, len(q.Predicates))
		for i, p := range q.Predicates {
			switch p.Value.Kind() {
			case doc.KindString:
				p.Value = doc.String([]string{"SF", "NY", "LA", "BBQ", "Pizza"}[rng.Intn(5)])
			case doc.KindNumber:
				p.Value = doc.Int(int64(rng.Intn(20)))
			}
			r.Predicates[len(q.Predicates)-1-i] = p
		}
		return &r
	}
	for _, q := range queries {
		s, err := PlanShape(q, composites, nil)
		var nie *NeedsIndexError
		if errors.As(err, &nie) {
			continue
		}
		if err != nil {
			t.Fatalf("PlanShape(%s): %v", q, err)
		}
		q2 := revalue(q)
		got, err := s.Bind(q2)
		if err != nil {
			t.Fatalf("Bind(%s): %v", q2, err)
		}
		want, err := BuildPlanWithStats(q2, composites, nil, nil)
		if err != nil {
			t.Fatalf("BuildPlanWithStats(%s): %v", q2, err)
		}
		if msg := planDiff(got, want); msg != "" {
			t.Fatalf("%s bound to the shape of %s: %s", q2, q, msg)
		}
	}
}

// planDiff describes how plans got and want differ: their Choice, or a
// scan's index or bytes; "" when they agree.
func planDiff(got, want *Plan) string {
	if got.Choice != want.Choice || len(got.Scans) != len(want.Scans) {
		return fmt.Sprintf("plan %s (%s), want %s (%s)", got, got.Choice, want, want.Choice)
	}
	for i, g := range got.Scans {
		w := want.Scans[i]
		if g.Def.ID != w.Def.ID || !bytes.Equal(g.Prefix, w.Prefix) || !bytes.Equal(g.Lo, w.Lo) || !bytes.Equal(g.Hi, w.Hi) {
			return fmt.Sprintf("scan %d is %s %x [%x, %x), want %s %x [%x, %x)", i, g.Def, g.Prefix, g.Lo, g.Hi, w.Def, w.Prefix, w.Lo, w.Hi)
		}
	}
	return ""
}
