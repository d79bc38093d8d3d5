package index

import (
	"fmt"
	"testing"

	"firestore/internal/doc"
)

func statDoc(t *testing.T, id, city, kind string, rating int64) *doc.Document {
	t.Helper()
	n, err := doc.ParseName("/restaurants/" + id)
	if err != nil {
		t.Fatal(err)
	}
	return &doc.Document{Name: n, Fields: map[string]doc.Value{
		"city":   doc.String(city),
		"type":   doc.String(kind),
		"rating": doc.Int(rating),
	}}
}

// TestStatsPrefixEstimates seeds documents with a known city skew and
// checks the sketch reproduces exact per-equality-prefix counts (no
// collisions at this scale) and total entry counts.
func TestStatsPrefixEstimates(t *testing.T) {
	s := NewStats()
	cities := []string{"SF", "SF", "SF", "NY", "LA"}
	for i, city := range cities {
		d := statDoc(t, fmt.Sprintf("r%d", i), city, "BBQ", int64(i))
		_, added := DiffEntries(nil, nil, d, nil, nil)
		if len(added) == 0 {
			t.Fatal("no entries for insert")
		}
		s.ApplyDiff(nil, added)
		s.ApplyDoc(d.Name.Collection().String(), +1)
	}

	cityAsc := AutoDef("restaurants", "city", Ascending)
	if got := s.IndexEntries(cityAsc.ID); got != int64(len(cities)) {
		t.Fatalf("IndexEntries(city asc) = %d, want %d", got, len(cities))
	}

	coll := statDoc(t, "r0", "SF", "BBQ", 0).Name.Collection()
	e := entryOf(cityAsc, []doc.Value{doc.String("SF")}, statDoc(t, "r0", "SF", "BBQ", 0).Name)
	if len(e.PrefixEnds) != 2 {
		t.Fatalf("PrefixEnds = %v, want collection prefix + one value", e.PrefixEnds)
	}
	sfPrefix := e.Key[:e.PrefixEnds[1]]
	if got := s.PrefixEntries(cityAsc.ID, sfPrefix); got != 3 {
		t.Fatalf("PrefixEntries(city=SF) = %d, want 3", got)
	}
	collPrefix := e.Key[:e.PrefixEnds[0]]
	if got := s.PrefixEntries(cityAsc.ID, collPrefix); got != 5 {
		t.Fatalf("PrefixEntries(collection prefix) = %d, want 5", got)
	}
	if got := s.CollectionDocs(coll.String()); got != 5 {
		t.Fatalf("CollectionDocs = %d, want 5", got)
	}

	// Update r0 from SF to NY: the diff removes SF entries, adds NY ones.
	oldD := statDoc(t, "r0", "SF", "BBQ", 0)
	newD := statDoc(t, "r0", "NY", "BBQ", 0)
	rem, add := DiffEntries(nil, oldD, newD, nil, nil)
	s.ApplyDiff(rem, add)
	if got := s.PrefixEntries(cityAsc.ID, sfPrefix); got != 2 {
		t.Fatalf("PrefixEntries(city=SF) after move = %d, want 2", got)
	}
	if got := s.IndexEntries(cityAsc.ID); got != int64(len(cities)) {
		t.Fatalf("IndexEntries after move = %d, want %d", got, len(cities))
	}

	// Delete r1: everything decrements.
	rem, add = DiffEntries(nil, statDoc(t, "r1", "SF", "BBQ", 1), nil, nil, nil)
	s.ApplyDiff(rem, add)
	s.ApplyDoc(coll.String(), -1)
	if got := s.IndexEntries(cityAsc.ID); got != 4 {
		t.Fatalf("IndexEntries after delete = %d, want 4", got)
	}
	if got := s.CollectionDocs(coll.String()); got != 4 {
		t.Fatalf("CollectionDocs after delete = %d, want 4", got)
	}
}

// TestStatsCompositeAndDrop checks composite-index entries are tracked
// under their own ID and DropIndex clears them.
func TestStatsCompositeAndDrop(t *testing.T) {
	s := NewStats()
	comp := CompositeDef("restaurants",
		Field{Path: "city", Dir: Ascending},
		Field{Path: "rating", Dir: Descending},
	)
	d := statDoc(t, "r9", "SF", "BBQ", 7)
	_, added := DiffEntries(nil, nil, d, []Definition{comp}, nil)
	s.ApplyDiff(nil, added)
	if got := s.IndexEntries(comp.ID); got != 1 {
		t.Fatalf("IndexEntries(composite) = %d, want 1", got)
	}
	e := entryOf(comp, []doc.Value{doc.String("SF"), doc.Int(7)}, d.Name)
	if len(e.PrefixEnds) != 3 {
		t.Fatalf("PrefixEnds = %v, want 3 boundaries", e.PrefixEnds)
	}
	if got := s.PrefixEntries(comp.ID, e.Key[:e.PrefixEnds[1]]); got != 1 {
		t.Fatalf("PrefixEntries(city=SF) on composite = %d, want 1", got)
	}
	s.DropIndex(comp.ID)
	if got := s.IndexEntries(comp.ID); got != 0 {
		t.Fatalf("IndexEntries after DropIndex = %d, want 0", got)
	}
	if got := s.PrefixEntries(comp.ID, e.Key[:e.PrefixEnds[1]]); got != 0 {
		t.Fatalf("PrefixEntries after DropIndex = %d, want 0", got)
	}
}

// TestStatsNilSafe: a nil *Stats (no tracking configured) is inert.
func TestStatsNilSafe(t *testing.T) {
	var s *Stats
	s.ApplyDiff(nil, nil)
	s.ApplyDoc("/x", 1)
	s.DropIndex(1)
	if s.IndexEntries(1) != 0 || s.PrefixEntries(1, []byte("p")) != 0 || s.CollectionDocs("/x") != 0 {
		t.Fatal("nil Stats returned non-zero")
	}
	if snap := s.Snapshot(); len(snap.Indexes) != 0 || len(snap.Collections) != 0 {
		t.Fatal("nil Stats snapshot not empty")
	}
}

// TestEntriesMatchReference: the entries of a whole document are the
// reference builder's, key for key and offset for offset.
func TestEntriesMatchReference(t *testing.T) {
	d := statDoc(t, "r1", "SF", "BBQ", 3)
	d.Fields["tags"] = doc.Array(doc.String("a"), doc.String("b"), doc.String("a"))
	comp := CompositeDef("restaurants",
		Field{Path: "city", Dir: Ascending},
		Field{Path: "type", Dir: Ascending},
	)
	_, want := refDiffEntries(nil, d, []Definition{comp}, nil)
	_, list := DiffEntries(nil, nil, d, []Definition{comp}, nil)
	if err := sameEntries(list, want, nil); err != nil {
		t.Fatal(err)
	}
	keys := Entries(d, []Definition{comp}, nil)
	if len(keys) != len(list) {
		t.Fatalf("Entries len %d != DiffEntries len %d", len(keys), len(list))
	}
	for i := range keys {
		if string(keys[i]) != string(list[i].Key) {
			t.Fatalf("entry %d: key mismatch", i)
		}
		ends := list[i].PrefixEnds
		if len(ends) < 2 || ends[len(ends)-1] >= len(list[i].Key) {
			t.Fatalf("entry %d: bad PrefixEnds %v for key len %d", i, ends, len(list[i].Key))
		}
	}
}
