package index

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"firestore/internal/doc"
	"firestore/internal/encoding"
)

// The reference implementation: the encode-everything / set-difference
// diff this package shipped with before the field-wise one. It encodes
// every entry of both document versions and subtracts the key sets. Kept
// as the oracle the field-wise diff is property-tested against.

// EntryKey builds the IndexEntries key of one entry directly from the
// layout (Entry's comment), with the public encoders only.
func EntryKey(def Definition, values []doc.Value, name doc.Name) []byte {
	return entryOf(def, values, name).Key
}

func entryOf(def Definition, values []doc.Value, name doc.Name) Entry {
	key := CollectionPrefix(def.ID, name.Collection())
	ends := []int{len(key)}
	for i, v := range values {
		if def.Fields[i].Dir == Descending {
			key = encoding.EncodeValueDesc(key, v)
		} else {
			key = encoding.EncodeValue(key, v)
		}
		ends = append(ends, len(key))
	}
	key = encoding.AppendEscaped(key, []byte(name.ID()))
	return Entry{Key: key, ID: def.ID, PrefixEnds: ends}
}

func refEntryList(d *doc.Document, composites []Definition, ex *Exemptions) []Entry {
	coll := d.Name.Collection().ID()
	flat := flatten(nil, d)
	var out []Entry
	for _, fv := range flat {
		if ex.IsExempt(coll, fv.Path) {
			continue
		}
		out = append(out,
			entryOf(AutoDef(coll, fv.Path, Ascending), []doc.Value{fv.Value}, d.Name),
			entryOf(AutoDef(coll, fv.Path, Descending), []doc.Value{fv.Value}, d.Name),
		)
		if fv.Value.Kind() == doc.KindArray {
			for _, el := range fv.Value.ArrayVal() {
				out = append(out, entryOf(ContainsDef(coll, fv.Path), []doc.Value{el}, d.Name))
			}
		}
	}
	byPath := make(map[doc.FieldPath]doc.Value, len(flat))
	for _, fv := range flat {
		byPath[fv.Path] = fv.Value
	}
	for _, def := range composites {
		if def.Collection != coll {
			continue
		}
		values := make([]doc.Value, 0, len(def.Fields))
		for _, f := range def.Fields {
			v, has := byPath[f.Path]
			if !has {
				v, has = d.Get(f.Path)
			}
			if !has {
				break
			}
			values = append(values, v)
		}
		if len(values) == len(def.Fields) {
			out = append(out, entryOf(def, values, d.Name))
		}
	}
	return out
}

// refDiffEntries is the set difference of the two versions' entry lists,
// each side sorted by key and free of duplicates.
func refDiffEntries(old, new *doc.Document, composites []Definition, ex *Exemptions) (removed, added []Entry) {
	var oldEs, newEs []Entry
	if old != nil {
		oldEs = refEntryList(old, composites, ex)
	}
	if new != nil {
		newEs = refEntryList(new, composites, ex)
	}
	oldSet, newSet := map[string]bool{}, map[string]bool{}
	for _, e := range oldEs {
		oldSet[string(e.Key)] = true
	}
	for _, e := range newEs {
		newSet[string(e.Key)] = true
	}
	for _, e := range oldEs {
		if !newSet[string(e.Key)] {
			newSet[string(e.Key)] = true // emit a duplicate once
			removed = append(removed, e)
		}
	}
	for _, e := range newEs {
		if !oldSet[string(e.Key)] {
			oldSet[string(e.Key)] = true
			added = append(added, e)
		}
	}
	byKey := func(a, b Entry) int { return bytes.Compare(a.Key, b.Key) }
	slices.SortFunc(removed, byKey)
	slices.SortFunc(added, byKey)
	return removed, added
}

// sameEntries compares got (built behind prefix) with the reference.
func sameEntries(got, want []Entry, prefix []byte) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d entries, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if !bytes.Equal(g.Key, append(slices.Clone(prefix), w.Key...)) || g.ID != w.ID {
			return fmt.Errorf("entry %d: key %x (id %x), want %x behind %x (id %x)", i, g.Key, g.ID, w.Key, prefix, w.ID)
		}
		if len(g.PrefixEnds) != len(w.PrefixEnds) {
			return fmt.Errorf("entry %d: PrefixEnds %v, want %v + %d", i, g.PrefixEnds, w.PrefixEnds, len(prefix))
		}
		for j, end := range w.PrefixEnds {
			if g.PrefixEnds[j] != end+len(prefix) {
				return fmt.Errorf("entry %d: PrefixEnds %v, want %v + %d", i, g.PrefixEnds, w.PrefixEnds, len(prefix))
			}
		}
	}
	return nil
}

// randValue draws from a small value space so that two random documents
// often agree on a field, differ only in representation (1 vs 1.0, a
// geopoint at -0.0 vs 0, two NaNs), or share array elements.
func randValue(r *rand.Rand, depth int) doc.Value {
	floats := []float64{0, 1, 2, 1.5, math.NaN(), math.Copysign(0, -1)}
	switch k := r.Intn(13); {
	case k == 0:
		return doc.Null()
	case k == 1:
		return doc.Bool(r.Intn(2) == 0)
	case k == 2:
		return doc.Int(int64(r.Intn(3)))
	case k == 3:
		return doc.Double(floats[r.Intn(6)])
	case k == 4:
		return doc.String([]string{"", "a", "b", "a\x00b"}[r.Intn(4)])
	case k == 5:
		return doc.Bytes([]byte{0, byte(r.Intn(2)), 0xff}[:r.Intn(4)])
	case k == 6:
		return doc.Reference("/c/" + []string{"x", "y"}[r.Intn(2)])
	case k == 7:
		return doc.Geo(floats[r.Intn(6)], floats[r.Intn(6)])
	case k == 8:
		return doc.Timestamp(time.Unix(1700000000, int64(r.Intn(3))*500)) // two share a microsecond
	case k <= 10 && depth < 2:
		elems := make([]doc.Value, r.Intn(4))
		for i := range elems {
			elems[i] = randValue(r, depth+1) // duplicates are likely
		}
		return doc.Array(elems...)
	case depth < 2:
		m := map[string]doc.Value{}
		for i := r.Intn(3); i > 0; i-- {
			m[[]string{"x", "y", "z"}[r.Intn(3)]] = randValue(r, depth+1)
		}
		return doc.Map(m) // empty maps stay leaves
	}
	return doc.Int(int64(r.Intn(3)))
}

func randDoc(r *rand.Rand, name doc.Name) *doc.Document {
	if r.Intn(8) == 0 {
		return nil
	}
	d := &doc.Document{Name: name, Fields: map[string]doc.Value{}}
	for _, f := range []string{"a", "b", "m", "tags", "n"} {
		if r.Intn(4) > 0 {
			d.Fields[f] = randValue(r, 0)
		}
	}
	return d
}

// TestDiffMatchesReference: over random document pairs — nested maps,
// arrays with duplicate elements, Int(1) against Double(1.0), kind
// changes, composites with a missing or unchanged field, an exempted
// field, nil on either side — the field-wise diff equals the reference
// set difference, with and without a row-key prefix.
func TestDiffMatchesReference(t *testing.T) {
	name := doc.MustName("/restaurants/one/ratings/r 1")
	composites := []Definition{
		CompositeDef("ratings", Field{"a", Ascending}, Field{"b", Descending}),
		CompositeDef("ratings", Field{"n", Descending}, Field{"m.x", Ascending}, Field{"a", Ascending}),
		CompositeDef("ratings", Field{"m", Ascending}), // a non-leaf path
		CompositeDef("other", Field{"a", Ascending}),
	}
	var ex Exemptions
	ex.Exempt("ratings", "tags")
	prefix := []byte("db\x00\x01\x00I")
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 3000; i++ {
		old, new := randDoc(r, name), randDoc(r, name)
		if old != nil && r.Intn(3) == 0 {
			// Mostly-unchanged update: one field replaced.
			new = old.Clone()
			new.Fields[[]string{"a", "m", "tags"}[r.Intn(3)]] = randValue(r, 0)
		}
		exs := []*Exemptions{nil, &ex}[i%2]
		wantRem, wantAdd := refDiffEntries(old, new, composites, exs)
		for _, p := range [][]byte{nil, prefix} {
			rem, add := DiffEntries(p, old, new, composites, exs)
			if err := sameEntries(rem, wantRem, p); err != nil {
				t.Fatalf("pair %d removed: %v\nold %v\nnew %v", i, err, old, new)
			}
			if err := sameEntries(add, wantAdd, p); err != nil {
				t.Fatalf("pair %d added: %v\nold %v\nnew %v", i, err, old, new)
			}
		}
	}
}

// TestDiffCollidingPaths: a top-level field "m.x" and a map "m" holding
// "x" flatten to one path; the diff is still the set difference.
func TestDiffCollidingPaths(t *testing.T) {
	name := doc.MustName("/c/d")
	mk := func(top, nested int64) *doc.Document {
		return &doc.Document{Name: name, Fields: map[string]doc.Value{
			"m.x": doc.Int(top),
			"m":   doc.Map(map[string]doc.Value{"x": doc.Int(nested)}),
		}}
	}
	for _, c := range [][4]int64{{1, 2, 2, 1}, {1, 1, 1, 2}, {1, 2, 1, 1}, {1, 2, 3, 1}} {
		old, new := mk(c[0], c[1]), mk(c[2], c[3])
		wantRem, wantAdd := refDiffEntries(old, new, nil, nil)
		rem, add := DiffEntries(nil, old, new, nil, nil)
		if err := sameEntries(rem, wantRem, nil); err != nil {
			t.Fatalf("%v removed: %v", c, err)
		}
		if err := sameEntries(add, wantAdd, nil); err != nil {
			t.Fatalf("%v added: %v", c, err)
		}
	}
}

// TestGoldenIDs pins index IDs as literals: they are persisted in every
// IndexEntries row key, so a hash that drifts orphans on-disk rows.
func TestGoldenIDs(t *testing.T) {
	for _, c := range []struct {
		def  Definition
		want uint64
	}{
		{AutoDef("restaurants", "city", Ascending), 0x432f6ba96423fb0},
		{AutoDef("restaurants", "city", Descending), 0x5e166bf5ed657f72},
		{AutoDef("ycsb", "field0", Ascending), 0xf1736c8e1bad60d8},
		{AutoDef("ratings", "address.zip", Descending), 0x1c47ff9ef0f84e06},
		{AutoDef("", "", Ascending), 0x1feff3f7ea82cbd7},
		{ContainsDef("restaurants", "tags"), 0x9c87d3a756b919ff},
		{ContainsDef("r\x00x", "a.b"), 0x99ab25e43c84802f},
		{CompositeDef("restaurants", Field{"city", Ascending}, Field{"avgRating", Descending}), 0x9e16a81b41d5fd98},
		{CompositeDef("restaurants", Field{"city", Ascending}), 0xfccbdcac7a3bcfea},
		{CompositeDef("ratings"), 0xd1636a73355f736e},
	} {
		if c.def.ID != c.want {
			t.Errorf("%v (kind %d): ID %#x, want %#x", c.def, c.def.Kind, c.def.ID, c.want)
		}
	}
	// And the hash itself against the standard library's.
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		b := make([]byte, r.Intn(64))
		r.Read(b)
		h := fnv.New64a()
		h.Write(b)
		cut := r.Intn(len(b) + 1)
		if got := fnv1a(fnv1a(fnvOffset, b[:cut]), string(b[cut:])); got != h.Sum64() {
			t.Fatalf("fnv1a(%x) = %#x, want %#x", b, got, h.Sum64())
		}
	}
}

// TestStatsBucketsMatchWholePrefixHash: hashing a key once with the
// running state snapshotted at each prefix end lands in the buckets that
// hashing each prefix from byte 0 does — the buckets PrefixEntries reads.
func TestStatsBucketsMatchWholePrefixHash(t *testing.T) {
	comp := CompositeDef("restaurants", Field{"city", Ascending}, Field{"type", Descending}, Field{"rating", Ascending})
	d := &doc.Document{Name: doc.MustName("/restaurants/r1"), Fields: map[string]doc.Value{
		"city": doc.String("SF"), "type": doc.String("BBQ"), "rating": doc.Int(3),
	}}
	s := NewStats()
	_, added := DiffEntries([]byte("dir\x00I"), nil, d, []Definition{comp}, nil)
	s.ApplyDiff(nil, added)
	for _, e := range refEntryList(d, []Definition{comp}, nil) {
		for _, end := range e.PrefixEnds {
			if got := s.PrefixEntries(e.ID, e.Key[:end]); got != 1 {
				t.Fatalf("index %x prefix %x: %d entries, want 1", e.ID, e.Key[:end], got)
			}
		}
	}
}

// diffGuardDocs returns the two shapes the allocation guards hold: a
// 12-field document with one changed field, and the benchmark's YCSB
// document (one 900-byte binary field, every byte changed).
func diffGuardDocs() (wideOld, wideNew, ycsbOld, ycsbNew *doc.Document) {
	wide := map[string]doc.Value{"tags": doc.Array(doc.String("bbq"), doc.String("casual"))}
	for i := 0; i < 10; i++ {
		wide[fieldName(i)] = doc.String(fmt.Sprintf("value-%d", i))
	}
	wide["rating"] = doc.Int(3)
	wideOld = doc.New(doc.MustName("/restaurants/r1"), wide)
	wideNew = wideOld.Set("rating", doc.Int(4))
	r := rand.New(rand.NewSource(7))
	value := func() doc.Value {
		v := make([]byte, 900)
		r.Read(v)
		return doc.Bytes(v)
	}
	name := doc.MustName("/ycsb/user00000042")
	ycsbOld = doc.New(name, map[string]doc.Value{"field0": value()})
	ycsbNew = doc.New(name, map[string]doc.Value{"field0": value()})
	return
}

func TestDiffAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops entries under -race; allocation counts mean nothing")
	}
	wideOld, wideNew, ycsbOld, ycsbNew := diffGuardDocs()
	comp := []Definition{CompositeDef("restaurants", Field{doc.FieldPath(fieldName(0)), Ascending}, Field{doc.FieldPath(fieldName(1)), Descending})}
	for _, c := range []struct {
		name     string
		old, new *doc.Document
	}{{"12 fields, one changed", wideOld, wideNew}, {"ycsb 900 B", ycsbOld, ycsbNew}} {
		rem, add := Diff(c.old, c.new, comp, nil)
		if len(rem) != 2 || len(add) != 2 {
			t.Fatalf("%s: %d removed, %d added, want 2 and 2", c.name, len(rem), len(add))
		}
		if got := testing.AllocsPerRun(200, func() { Diff(c.old, c.new, comp, nil) }); got > 16 {
			t.Errorf("%s: Diff allocates %.0f times, want <= 16", c.name, got)
		}
	}
}
