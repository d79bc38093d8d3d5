package catalog

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"firestore/internal/doc"
	"firestore/internal/encoding"
	"firestore/internal/index"
	"firestore/internal/rules"
	"firestore/internal/spanner"
	"firestore/internal/truetime"
)

func pool(n int) []*spanner.DB {
	out := make([]*spanner.DB, n)
	for i := range out {
		out[i] = spanner.New(spanner.Config{Clock: truetime.NewSystem(10 * time.Microsecond)})
	}
	return out
}

func TestCreateGetList(t *testing.T) {
	c := New(pool(3))
	db, err := c.Create("app1")
	if err != nil {
		t.Fatal(err)
	}
	if db.ID != "app1" || db.Spanner == nil {
		t.Fatalf("db = %+v", db)
	}
	if _, err := c.Create("app1"); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate Create = %v", err)
	}
	if _, err := c.Create(""); err == nil {
		t.Error("empty ID accepted")
	}
	got, err := c.Get("app1")
	if err != nil || got != db {
		t.Fatalf("Get = %v, %v", got, err)
	}
	if _, err := c.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get missing = %v", err)
	}
	c.Create("app2")
	if ids := c.List(); len(ids) != 2 {
		t.Fatalf("List = %v", ids)
	}
}

func TestPlacementSpreads(t *testing.T) {
	c := New(pool(4))
	seen := map[*spanner.DB]int{}
	for i := 0; i < 64; i++ {
		db, err := c.Create(string(rune('a'+i%26)) + string(rune('0'+i/26)))
		if err != nil {
			t.Fatal(err)
		}
		seen[db.Spanner]++
	}
	if len(seen) < 3 {
		t.Fatalf("placement used only %d of 4 spanner databases", len(seen))
	}
}

func TestDirectoryIsolation(t *testing.T) {
	c := New(pool(1))
	a, _ := c.Create("a")
	b, _ := c.Create("ab") // IDs that are prefixes of each other
	ka := a.EntityKey(doc.MustName("/c/d"))
	kb := b.EntityKey(doc.MustName("/c/d"))
	if bytes.Equal(ka, kb) {
		t.Fatal("different databases share entity keys")
	}
	loA, hiA := a.EntityRange(nil, nil)
	if !(bytes.Compare(ka, loA) >= 0 && bytes.Compare(ka, hiA) < 0) {
		t.Fatal("a's key outside a's range")
	}
	if bytes.Compare(kb, loA) >= 0 && bytes.Compare(kb, hiA) < 0 {
		t.Fatal("b's key inside a's range")
	}
}

func TestEntityVsIndexKeySpaces(t *testing.T) {
	c := New(pool(1))
	db, _ := c.Create("x")
	nameEnc := encoding.EncodeName(nil, doc.MustName("/c/d"))
	e := db.EntityKey(doc.MustName("/c/d"))
	if want := append(append(append(encoding.AppendEscaped(nil, "x"), 0x00), TableEntities), nameEnc...); !bytes.Equal(e, want) {
		t.Fatalf("entity key %x, want directory, table byte, encoded name: %x", e, want)
	}
	if i := db.IndexPrefix(); !bytes.Equal(db.IndexKey(nameEnc), append(i[:len(i):len(i)], nameEnc...)) {
		t.Fatal("IndexKey is not IndexPrefix + entry")
	}
	i := db.IndexKey(nameEnc)
	if bytes.Equal(e, i) {
		t.Fatal("entity and index keys collide")
	}
	klo, khi := db.IndexRange(nil, nil)
	if !(bytes.Compare(i, klo) >= 0 && bytes.Compare(i, khi) < 0) {
		t.Fatal("index key outside full index range")
	}
	if bytes.Compare(e, klo) >= 0 && bytes.Compare(e, khi) < 0 {
		t.Fatal("entity key inside index range")
	}
	if got := db.StripIndexKey(i); !bytes.Equal(got, nameEnc) {
		t.Fatalf("StripIndexKey = %x, want %x", got, nameEnc)
	}
}

func TestIndexRangeBounded(t *testing.T) {
	c := New(pool(1))
	db, _ := c.Create("x")
	lo := []byte{1, 2}
	hi := []byte{1, 9}
	klo, khi := db.IndexRange(lo, hi)
	if !bytes.HasSuffix(klo, lo) || !bytes.HasSuffix(khi, hi) {
		t.Fatal("bounded range mangled")
	}
}

func TestMetaSnapshotsImmutable(t *testing.T) {
	c := New(pool(1))
	db, _ := c.Create("x")
	m0 := db.Meta()
	def := index.CompositeDef("c", index.Field{Path: "f", Dir: index.Ascending})
	db.AddComposite(def)
	if len(m0.Composites) != 0 {
		t.Fatal("old snapshot mutated")
	}
	m1 := db.Meta()
	if len(m1.Composites) != 1 || !m1.Backfilling[def.ID] {
		t.Fatalf("meta after AddComposite = %+v", m1)
	}
	// Backfilling indexes are written but not planned with.
	if len(m1.ReadyComposites()) != 0 {
		t.Fatal("backfilling index is ready")
	}
	db.FinishBackfill(def.ID)
	if len(db.Meta().ReadyComposites()) != 1 {
		t.Fatal("finished index not ready")
	}
	// Adding the same composite again is a no-op.
	db.AddComposite(def)
	if n := len(db.Meta().Composites); n != 1 {
		t.Fatalf("duplicate composite count = %d", n)
	}
	db.RemoveComposite(def.ID)
	if len(db.Meta().Composites) != 0 {
		t.Fatal("composite not removed")
	}
}

func TestExemptionsAndRules(t *testing.T) {
	c := New(pool(1))
	db, _ := c.Create("x")
	db.AddExemption("ratings", "time")
	if !db.Meta().Exemptions.IsExempt("ratings", "time") {
		t.Fatal("exemption lost")
	}
	db.AddExemption("ratings", "seq")
	m := db.Meta()
	if !m.Exemptions.IsExempt("ratings", "time") || !m.Exemptions.IsExempt("ratings", "seq") {
		t.Fatal("exemptions not accumulated")
	}
	if db.Meta().Rules != nil {
		t.Fatal("default rules should be nil (deny)")
	}
	rs, err := rules.Parse(`match /a/{b} { allow read; }`)
	if err != nil {
		t.Fatal(err)
	}
	db.SetRules(rs)
	if db.Meta().Rules != rs {
		t.Fatal("rules not installed")
	}
}

func TestConcurrentMetaUpdates(t *testing.T) {
	c := New(pool(1))
	db, _ := c.Create("x")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			def := index.CompositeDef("c", index.Field{Path: doc.FieldPath("f" + string(rune('0'+i))), Dir: index.Ascending})
			db.AddComposite(def)
			db.FinishBackfill(def.ID)
		}(i)
	}
	wg.Wait()
	if n := len(db.Meta().Composites); n != 8 {
		t.Fatalf("composites = %d, want 8", n)
	}
	if n := len(db.Meta().ReadyComposites()); n != 8 {
		t.Fatalf("ready = %d, want 8", n)
	}
}
