package index

import (
	"bytes"
	"encoding/binary"
	"sort"
	"testing"

	"firestore/internal/doc"
	"firestore/internal/encoding"
)

func ratingDoc(id string, rating int64, userID string) *doc.Document {
	n, _ := doc.MustCollection("/restaurants/one/ratings").Doc(id)
	return doc.New(n, map[string]doc.Value{
		"rating": doc.Int(rating),
		"userID": doc.String(userID),
	})
}

func TestAutoDefDeterministic(t *testing.T) {
	a := AutoDef("ratings", "rating", Ascending)
	b := AutoDef("ratings", "rating", Ascending)
	if a.ID != b.ID {
		t.Fatal("auto IDs not deterministic")
	}
	c := AutoDef("ratings", "rating", Descending)
	if a.ID == c.ID {
		t.Fatal("asc and desc share an ID")
	}
	d := AutoDef("reviews", "rating", Ascending)
	if a.ID == d.ID {
		t.Fatal("different collections share an ID")
	}
	if a.ID == ContainsDef("ratings", "rating").ID {
		t.Fatal("auto and contains share an ID")
	}
}

func TestCompositeDefShape(t *testing.T) {
	d := CompositeDef("restaurants", Field{"city", Ascending}, Field{"avgRating", Descending})
	if d.Kind != KindComposite || len(d.Fields) != 2 {
		t.Fatalf("composite = %+v", d)
	}
	d2 := CompositeDef("restaurants", Field{"city", Ascending}, Field{"avgRating", Ascending})
	if d.ID == d2.ID {
		t.Fatal("direction change should change ID")
	}
	if d.String() == "" {
		t.Fatal("empty String")
	}
}

func TestFlattenFields(t *testing.T) {
	d := doc.New(doc.MustName("/c/x"), map[string]doc.Value{
		"a": doc.Int(1),
		"m": doc.Map(map[string]doc.Value{
			"x": doc.Int(2),
			"y": doc.Map(map[string]doc.Value{"z": doc.Int(3)}),
		}),
		"empty": doc.Map(map[string]doc.Value{}),
		"arr":   doc.Array(doc.Int(1), doc.Int(2)),
	})
	flat := flatten(nil, d)
	got := map[string]bool{}
	for _, fv := range flat {
		got[string(fv.Path)] = true
	}
	for _, want := range []string{"a", "m.x", "m.y.z", "empty", "arr"} {
		if !got[want] {
			t.Errorf("missing flattened path %q (have %v)", want, got)
		}
	}
	if len(flat) != 5 {
		t.Errorf("flat count = %d, want 5", len(flat))
	}
	if !sort.SliceIsSorted(flat, func(i, j int) bool { return flat[i].Path < flat[j].Path }) {
		t.Error("flattened fields not sorted")
	}
}

func TestEntriesPerFieldCount(t *testing.T) {
	// n scalar fields => 2n entries (asc+desc): the Fig. 10b linear
	// relationship.
	for _, n := range []int{1, 5, 50} {
		fields := map[string]doc.Value{}
		for i := 0; i < n; i++ {
			fields[fieldName(i)] = doc.Int(int64(i))
		}
		d := doc.New(doc.MustName("/c/x"), fields)
		entries := Entries(d, nil, nil)
		if len(entries) != 2*n {
			t.Fatalf("fields=%d entries=%d, want %d", n, len(entries), 2*n)
		}
	}
}

func fieldName(i int) string {
	return "f" + string(rune('a'+i/26)) + string(rune('a'+i%26))
}

func TestEntriesArrayContains(t *testing.T) {
	d := doc.New(doc.MustName("/c/x"), map[string]doc.Value{
		"tags": doc.Array(doc.String("a"), doc.String("b"), doc.String("a")), // dup collapses
	})
	entries := Entries(d, nil, nil)
	// asc + desc on the whole array, plus 2 distinct contains entries.
	if len(entries) != 4 {
		t.Fatalf("entries = %d, want 4", len(entries))
	}
	cdef := ContainsDef("c", "tags")
	count := 0
	prefix := IDPrefix(cdef.ID)
	for _, e := range entries {
		if bytes.HasPrefix(e, prefix) {
			count++
		}
	}
	if count != 2 {
		t.Fatalf("contains entries = %d, want 2", count)
	}
}

func TestEntriesExemption(t *testing.T) {
	var ex Exemptions
	ex.Exempt("ratings", "time")
	d := ratingDoc("1", 5, "alice")
	d.Fields["time"] = doc.Timestamp(d.Fields["rating"].TimeVal())
	entries := Entries(d, nil, &ex)
	// rating + userID indexed (2 each), time exempted.
	if len(entries) != 4 {
		t.Fatalf("entries = %d, want 4", len(entries))
	}
	if !ex.IsExempt("ratings", "time") || ex.IsExempt("ratings", "rating") {
		t.Fatal("IsExempt wrong")
	}
	if got := ex.List(); len(got) != 1 || got[0] != "ratings:time" {
		t.Fatalf("List = %v", got)
	}
}

func TestNilExemptions(t *testing.T) {
	var ex *Exemptions
	if ex.IsExempt("a", "b") {
		t.Fatal("nil exemptions should exempt nothing")
	}
	if ex.List() != nil {
		t.Fatal("nil List should be nil")
	}
}

func TestEntriesComposite(t *testing.T) {
	comp := CompositeDef("ratings", Field{"rating", Ascending}, Field{"userID", Descending})
	d := ratingDoc("1", 5, "alice")
	entries := Entries(d, []Definition{comp}, nil)
	prefix := IDPrefix(comp.ID)
	found := 0
	for _, e := range entries {
		if bytes.HasPrefix(e, prefix) {
			found++
		}
	}
	if found != 1 {
		t.Fatalf("composite entries = %d, want 1", found)
	}
	// A doc missing one field gets no composite entry.
	d2 := doc.New(doc.MustName("/restaurants/one/ratings/2"), map[string]doc.Value{"rating": doc.Int(3)})
	for _, e := range Entries(d2, []Definition{comp}, nil) {
		if bytes.HasPrefix(e, prefix) {
			t.Fatal("incomplete doc has composite entry")
		}
	}
	// A doc in a different collection is not covered.
	d3 := doc.New(doc.MustName("/reviews/1"), map[string]doc.Value{"rating": doc.Int(3), "userID": doc.String("x")})
	for _, e := range Entries(d3, []Definition{comp}, nil) {
		if bytes.HasPrefix(e, prefix) {
			t.Fatal("wrong collection has composite entry")
		}
	}
}

func TestCompositeOnNestedPath(t *testing.T) {
	comp := CompositeDef("c", Field{"addr.city", Ascending}, Field{"n", Ascending})
	d := doc.New(doc.MustName("/c/x"), map[string]doc.Value{
		"addr": doc.Map(map[string]doc.Value{"city": doc.String("SF")}),
		"n":    doc.Int(1),
	})
	prefix := IDPrefix(comp.ID)
	found := false
	for _, e := range Entries(d, []Definition{comp}, nil) {
		if bytes.HasPrefix(e, prefix) {
			found = true
		}
	}
	if !found {
		t.Fatal("nested-path composite entry missing")
	}
}

func TestEntryKeySortOrder(t *testing.T) {
	def := AutoDef("ratings", "rating", Descending)
	k5 := EntryKey(def, []doc.Value{doc.Int(5)}, doc.MustName("/restaurants/one/ratings/a"))
	k3 := EntryKey(def, []doc.Value{doc.Int(3)}, doc.MustName("/restaurants/one/ratings/b"))
	if bytes.Compare(k5, k3) >= 0 {
		t.Fatal("descending index: higher rating should sort first")
	}
	// Same value: name breaks the tie ascending.
	ka := EntryKey(def, []doc.Value{doc.Int(5)}, doc.MustName("/restaurants/one/ratings/a"))
	kb := EntryKey(def, []doc.Value{doc.Int(5)}, doc.MustName("/restaurants/one/ratings/b"))
	if bytes.Compare(ka, kb) >= 0 {
		t.Fatal("name tie-break not ascending")
	}
}

func TestEntryKeyLayout(t *testing.T) {
	def := AutoDef("ratings", "rating", Ascending)
	name := doc.MustName("/restaurants/one/ratings/2")
	key := EntryKey(def, []doc.Value{doc.Int(5)}, name)
	if binary.BigEndian.Uint64(key[:8]) != def.ID {
		t.Fatal("ID prefix wrong")
	}
	// Entries for one collection share the CollectionPrefix; a sibling
	// collection with the same ID does not.
	prefix := CollectionPrefix(def.ID, name.Collection())
	if !bytes.HasPrefix(key, prefix) {
		t.Fatal("entry lacks its collection prefix")
	}
	other := EntryKey(def, []doc.Value{doc.Int(5)}, doc.MustName("/restaurants/two/ratings/2"))
	if bytes.HasPrefix(other, prefix) {
		t.Fatal("sibling collection shares the prefix")
	}
	// The document ID is recoverable from the tail.
	vlen := len(encoding.EncodeValue(nil, doc.Int(5)))
	id, _, err := encoding.ReadEscaped(key[len(prefix)+vlen:])
	if err != nil || string(id) != "2" {
		t.Fatalf("doc ID from entry = %q, %v", id, err)
	}
}

func TestDiffInsertDelete(t *testing.T) {
	d := ratingDoc("1", 5, "alice")
	removed, added := Diff(nil, d, nil, nil)
	if len(removed) != 0 || len(added) != 4 {
		t.Fatalf("insert diff = %d removed, %d added", len(removed), len(added))
	}
	removed, added = Diff(d, nil, nil, nil)
	if len(removed) != 4 || len(added) != 0 {
		t.Fatalf("delete diff = %d removed, %d added", len(removed), len(added))
	}
}

func TestDiffUpdateOnlyChangedField(t *testing.T) {
	old := ratingDoc("1", 5, "alice")
	new := ratingDoc("1", 3, "alice") // rating changed, userID unchanged
	removed, added := Diff(old, new, nil, nil)
	if len(removed) != 2 || len(added) != 2 {
		t.Fatalf("update diff = %d removed, %d added, want 2/2", len(removed), len(added))
	}
	// Unchanged doc: empty diff.
	removed, added = Diff(old, old.Clone(), nil, nil)
	if len(removed) != 0 || len(added) != 0 {
		t.Fatalf("no-op diff = %d removed, %d added", len(removed), len(added))
	}
}

func TestDiffBothNil(t *testing.T) {
	removed, added := Diff(nil, nil, nil, nil)
	if removed != nil || added != nil {
		t.Fatal("nil/nil diff should be empty")
	}
}

func BenchmarkEntries10Fields(b *testing.B) {
	fields := map[string]doc.Value{}
	for i := 0; i < 10; i++ {
		fields[fieldName(i)] = doc.Int(int64(i))
	}
	d := doc.New(doc.MustName("/c/x"), fields)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Entries(d, nil, nil)
	}
}

func BenchmarkDiffUpdate(b *testing.B) {
	old := ratingDoc("1", 5, "alice")
	new := ratingDoc("1", 3, "alice")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Diff(old, new, nil, nil)
	}
}
