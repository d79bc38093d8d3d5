package query

import (
	"errors"
	"testing"

	"firestore/internal/doc"
	"firestore/internal/index"
)

func TestValidateCursor(t *testing.T) {
	coll := doc.MustCollection("/restaurants")
	ords := []Order{{Path: "avgRating", Dir: index.Ascending}}
	cases := []struct {
		name string
		q    Query
		want error
	}{
		{
			"empty cursor",
			Query{Collection: coll, Start: &Cursor{}},
			ErrCursorEmpty,
		},
		{
			"too many values",
			Query{Collection: coll, Orders: ords,
				Start: &Cursor{Values: []doc.Value{doc.Double(3), doc.String("/restaurants/r1"), doc.String("x")}}},
			ErrCursorArity,
		},
		{
			"name component not a string",
			Query{Collection: coll, Orders: ords,
				End: &Cursor{Values: []doc.Value{doc.Double(3), doc.Int(7)}}},
			ErrCursorName,
		},
		{
			"bare collection name cursor must be string",
			Query{Collection: coll, Start: &Cursor{Values: []doc.Value{doc.Int(1)}}},
			ErrCursorName,
		},
		{
			"prefix cursor ok",
			Query{Collection: coll, Orders: ords,
				Start: &Cursor{Values: []doc.Value{doc.Double(3)}}},
			nil,
		},
		{
			"full cursor with name tie-break ok",
			Query{Collection: coll, Orders: ords,
				End: &Cursor{Values: []doc.Value{doc.Double(3), doc.Reference("/restaurants/r1")}}},
			nil,
		},
		{
			"bare collection name cursor ok",
			Query{Collection: coll, Start: &Cursor{Values: []doc.Value{doc.String("/restaurants/r1")}}},
			nil,
		},
	}
	for _, c := range cases {
		err := c.q.Validate()
		if c.want == nil && err != nil {
			t.Errorf("%s: Validate = %v, want nil", c.name, err)
		}
		if c.want != nil && !errors.Is(err, c.want) {
			t.Errorf("%s: Validate = %v, want %v", c.name, err, c.want)
		}
	}
}

func TestCursorBounds(t *testing.T) {
	coll := doc.MustCollection("/restaurants")
	d := restaurant("m", "SF", "BBQ", 3.0, 10) // name /restaurants/m, avgRating 3.0
	rating := func(v float64) []doc.Value { return []doc.Value{doc.Double(v)} }
	cases := []struct {
		name           string
		q              Query
		beforeS, pastE bool
	}{
		{
			"start below, inclusive",
			Query{Collection: coll, Orders: []Order{{"avgRating", index.Ascending}},
				Start: &Cursor{Values: rating(2.0), Inclusive: true}},
			false, false,
		},
		{
			"start at, inclusive keeps",
			Query{Collection: coll, Orders: []Order{{"avgRating", index.Ascending}},
				Start: &Cursor{Values: rating(3.0), Inclusive: true}},
			false, false,
		},
		{
			"start at, exclusive skips",
			Query{Collection: coll, Orders: []Order{{"avgRating", index.Ascending}},
				Start: &Cursor{Values: rating(3.0)}},
			true, false,
		},
		{
			"start above skips",
			Query{Collection: coll, Orders: []Order{{"avgRating", index.Ascending}},
				Start: &Cursor{Values: rating(4.0), Inclusive: true}},
			true, false,
		},
		{
			"end at, inclusive keeps",
			Query{Collection: coll, Orders: []Order{{"avgRating", index.Ascending}},
				End: &Cursor{Values: rating(3.0), Inclusive: true}},
			false, false,
		},
		{
			"end at, exclusive ends",
			Query{Collection: coll, Orders: []Order{{"avgRating", index.Ascending}},
				End: &Cursor{Values: rating(3.0)}},
			false, true,
		},
		{
			"descending flips start",
			Query{Collection: coll, Orders: []Order{{"avgRating", index.Descending}},
				Start: &Cursor{Values: rating(2.0), Inclusive: true}},
			true, false, // descending: 2.0 sorts after 3.0, so d is before the start
		},
		{
			"descending flips end",
			Query{Collection: coll, Orders: []Order{{"avgRating", index.Descending}},
				End: &Cursor{Values: rating(4.0), Inclusive: true}},
			false, true,
		},
		{
			"name tie-break breaks equal prefix",
			Query{Collection: coll, Orders: []Order{{"avgRating", index.Ascending}},
				Start: &Cursor{Values: []doc.Value{doc.Double(3.0), doc.String("/restaurants/m")}}},
			true, false, // exclusive at exactly (3.0, /restaurants/m): skip d itself
		},
		{
			"reference tie-break keeps later names",
			Query{Collection: coll, Orders: []Order{{"avgRating", index.Ascending}},
				Start: &Cursor{Values: []doc.Value{doc.Double(3.0), doc.Reference("/restaurants/a")}}},
			false, false,
		},
		{
			"bare collection name cursor",
			Query{Collection: coll,
				Start: &Cursor{Values: []doc.Value{doc.String("/restaurants/m")}, Inclusive: true},
				End:   &Cursor{Values: []doc.Value{doc.String("/restaurants/m")}, Inclusive: true}},
			false, false,
		},
	}
	for _, c := range cases {
		if err := c.q.Validate(); err != nil {
			t.Errorf("%s: Validate = %v", c.name, err)
			continue
		}
		if got := c.q.BeforeStart(d); got != c.beforeS {
			t.Errorf("%s: BeforeStart = %v, want %v", c.name, got, c.beforeS)
		}
		if got := c.q.PastEnd(d); got != c.pastE {
			t.Errorf("%s: PastEnd = %v, want %v", c.name, got, c.pastE)
		}
		wantMatch := !c.beforeS && !c.pastE
		if got := c.q.Matches(d); got != wantMatch {
			t.Errorf("%s: Matches = %v, want %v", c.name, got, wantMatch)
		}
	}
}

// TestCursorEntitiesScan pages a bare collection query by document name
// through the Entities-table path, checking cursors compose with offset
// and limit against the naive reference semantics.
func TestCursorEntitiesScan(t *testing.T) {
	m := newMemStore(nil, nil)
	seedRestaurants(m)
	coll := doc.MustCollection("/restaurants")

	q := &Query{Collection: coll,
		Start: &Cursor{Values: []doc.Value{doc.String("/restaurants/r010")}, Inclusive: true},
		End:   &Cursor{Values: []doc.Value{doc.String("/restaurants/r020")}},
	}
	got := runPlan(t, m, q)
	want := m.evaluate(q)
	assertSameDocs(t, q, got, want)
	if len(got) != 10 {
		t.Fatalf("got %d docs, want 10 (r010..r019)", len(got))
	}
	if got[0].Name.ID() != "r010" || got[9].Name.ID() != "r019" {
		t.Errorf("range = [%s, %s], want [r010, r019]", got[0].Name.ID(), got[9].Name.ID())
	}

	// Cursors apply before offset and limit.
	q2 := &Query{Collection: coll, Offset: 2, Limit: 3,
		Start: &Cursor{Values: []doc.Value{doc.String("/restaurants/r010")}},
	}
	got2 := runPlan(t, m, q2)
	assertSameDocs(t, q2, got2, m.evaluate(q2))
	if len(got2) != 3 || got2[0].Name.ID() != "r013" {
		t.Fatalf("offset+limit after exclusive start: got %v", names(got2))
	}
}

// TestCursorIndexScan exercises cursor bounds on the index-scan path
// (ordered query), including paging by (sort value, name) pairs.
func TestCursorIndexScan(t *testing.T) {
	m := newMemStore(nil, nil)
	seedRestaurants(m)
	coll := doc.MustCollection("/restaurants")
	ords := []Order{{Path: "avgRating", Dir: index.Ascending}}

	base := &Query{Collection: coll, Orders: ords}
	all := runPlan(t, m, base)
	if len(all) == 0 {
		t.Fatal("no docs")
	}

	// Resume exactly after the 20th result using its (value, name) cursor.
	pivot := all[19]
	rv, _ := pivot.Get("avgRating")
	q := &Query{Collection: coll, Orders: ords,
		Start: &Cursor{Values: []doc.Value{rv, doc.String(pivot.Name.String())}},
	}
	got := runPlan(t, m, q)
	assertSameDocs(t, q, got, m.evaluate(q))
	if len(got) != len(all)-20 {
		t.Fatalf("resumed page has %d docs, want %d", len(got), len(all)-20)
	}
	if !got[0].Equal(all[20]) {
		t.Errorf("first resumed doc = %s, want %s", got[0].Name, all[20].Name)
	}

	// An end cursor bounds the page; offset still applies inside the range.
	ev, _ := all[30].Get("avgRating")
	q2 := &Query{Collection: coll, Orders: ords, Offset: 5, Limit: 4,
		Start: &Cursor{Values: []doc.Value{rv, doc.String(pivot.Name.String())}},
		End:   &Cursor{Values: []doc.Value{ev}, Inclusive: true},
	}
	got2 := runPlan(t, m, q2)
	assertSameDocs(t, q2, got2, m.evaluate(q2))

	// Descending order with cursors.
	dords := []Order{{Path: "avgRating", Dir: index.Descending}}
	dall := runPlan(t, m, &Query{Collection: coll, Orders: dords})
	dv, _ := dall[9].Get("avgRating")
	q3 := &Query{Collection: coll, Orders: dords,
		Start: &Cursor{Values: []doc.Value{dv, doc.String(dall[9].Name.String())}},
	}
	got3 := runPlan(t, m, q3)
	assertSameDocs(t, q3, got3, m.evaluate(q3))
	if len(got3) != len(dall)-10 {
		t.Fatalf("descending resumed page has %d docs, want %d", len(got3), len(dall)-10)
	}
}
