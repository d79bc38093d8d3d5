package doc

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func sampleDoc() *Document {
	return New(MustName("/restaurants/one"), map[string]Value{
		"name":       String("Burger Garden"),
		"city":       String("SF"),
		"avgRating":  Double(4.5),
		"numRatings": Int(10),
		"address":    Map(map[string]Value{"street": String("Main St"), "zip": Int(94105)}),
		"tags":       Array(String("bbq"), String("casual")),
	})
}

func TestDocumentGetSet(t *testing.T) {
	d := sampleDoc()
	v, ok := d.Get("avgRating")
	if !ok || v.DoubleVal() != 4.5 {
		t.Errorf("Get avgRating = %v, %v", v, ok)
	}
	v, ok = d.Get("address.zip")
	if !ok || v.IntVal() != 94105 {
		t.Errorf("Get address.zip = %v, %v", v, ok)
	}
	if _, ok := d.Get("missing"); ok {
		t.Error("missing field found")
	}
	if _, ok := d.Get("address.missing"); ok {
		t.Error("missing nested field found")
	}
	if _, ok := d.Get("name.sub"); ok {
		t.Error("traversal through string should fail")
	}

	d2 := d.Set("address.zip", Int(10001))
	if v, _ := d2.Get("address.zip"); v.IntVal() != 10001 {
		t.Error("Set nested failed")
	}
	if v, _ := d.Get("address.zip"); v.IntVal() != 94105 {
		t.Error("Set mutated original")
	}
	d3 := d.Set("brand.new.path", Bool(true))
	if v, ok := d3.Get("brand.new.path"); !ok || !v.BoolVal() {
		t.Error("Set should create intermediate maps")
	}
	d4 := d.Set("name.sub", Int(1))
	if v, ok := d4.Get("name.sub"); !ok || v.IntVal() != 1 {
		t.Error("Set through non-map should replace with map")
	}
}

func TestDocumentDeleteField(t *testing.T) {
	d := sampleDoc()
	d2 := d.DeleteField("address.zip")
	if _, ok := d2.Get("address.zip"); ok {
		t.Error("field not deleted")
	}
	if _, ok := d.Get("address.zip"); !ok {
		t.Error("delete mutated original")
	}
	d3 := d.DeleteField("missing.path")
	if !d3.Equal(d) {
		t.Error("deleting missing field changed doc")
	}
	d4 := d.DeleteField("city")
	if _, ok := d4.Get("city"); ok {
		t.Error("top-level delete failed")
	}
}

func TestDocumentEqual(t *testing.T) {
	a, b := sampleDoc(), sampleDoc()
	if !a.Equal(b) {
		t.Error("identical docs unequal")
	}
	b.Fields["city"] = String("NY")
	if a.Equal(b) {
		t.Error("differing docs equal")
	}
	c := sampleDoc()
	delete(c.Fields, "city")
	if a.Equal(c) {
		t.Error("missing field should break equality")
	}
	var nilDoc *Document
	if nilDoc.Equal(a) || a.Equal(nilDoc) {
		t.Error("nil comparisons")
	}
	if !nilDoc.Equal(nil) {
		t.Error("nil==nil")
	}
}

func TestDocumentSizeLimit(t *testing.T) {
	d := New(MustName("/c/d"), map[string]Value{
		"big": Bytes(make([]byte, MaxDocSize)),
	})
	if err := d.CheckSize(); !errors.Is(err, ErrTooLarge) {
		t.Errorf("CheckSize = %v, want ErrTooLarge", err)
	}
	small := New(MustName("/c/d"), map[string]Value{"x": Int(1)})
	if err := small.CheckSize(); err != nil {
		t.Errorf("CheckSize small = %v", err)
	}
}

func TestDocumentString(t *testing.T) {
	d := New(MustName("/c/d"), map[string]Value{"b": Int(2), "a": Int(1)})
	if got := d.String(); got != "/c/d {a: 1, b: 2}" {
		t.Errorf("String = %q", got)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	d := sampleDoc()
	d.CreateTime, d.UpdateTime = 100, 200
	d.Fields["ts"] = Timestamp(time.Unix(1700000000, 123456000))
	d.Fields["bin"] = Bytes([]byte{0, 1, 2, 255})
	d.Fields["ref"] = Reference("/users/alice")
	d.Fields["geo"] = Geo(37.7, -122.4)
	d.Fields["nil"] = Null()
	d.Fields["f"] = Double(3.14159)
	d.Fields["neg"] = Int(-42)

	got, err := Unmarshal(Marshal(d))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(d) {
		t.Fatalf("round trip mismatch:\n got %s\nwant %s", got, d)
	}
	if got.CreateTime != 100 || got.UpdateTime != 200 {
		t.Errorf("timestamps lost: %d, %d", got.CreateTime, got.UpdateTime)
	}
	if !got.Fields["f"].IsInt() == false && got.Fields["f"].IsInt() {
		t.Error("double decoded as int")
	}
	if !got.Fields["neg"].IsInt() {
		t.Error("int decoded as double")
	}
}

func TestMarshalRoundTripQuick(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fields := map[string]Value{}
		for i := 0; i < rng.Intn(10); i++ {
			fields[randString(rng)+"k"] = randValue(rng, 0)
		}
		d := New(MustName("/c/doc"), fields)
		d.UpdateTime = 42
		got, err := Unmarshal(Marshal(d))
		return err == nil && got.Equal(d) && got.UpdateTime == 42
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalCorrupt(t *testing.T) {
	d := sampleDoc()
	blob := Marshal(d)
	// Truncations must error, never panic.
	for i := 0; i < len(blob); i++ {
		if _, err := Unmarshal(blob[:i]); err == nil {
			// Some prefixes may decode to a doc with fewer fields only
			// if lengths happen to align; they must at least not equal.
			got, _ := Unmarshal(blob[:i])
			if got != nil && got.Equal(d) {
				t.Fatalf("truncated blob at %d decoded equal", i)
			}
		}
	}
	if _, err := Unmarshal(nil); err == nil {
		t.Error("nil blob decoded")
	}
	// Trailing garbage.
	if _, err := Unmarshal(append(append([]byte{}, blob...), 0xff)); err == nil {
		t.Error("trailing garbage accepted")
	}
}

func TestUnmarshalHostileLengths(t *testing.T) {
	// A huge declared string length must not allocate or crash.
	var b []byte
	b = appendString(b, "/c/d")
	b = append(b, 0, 0) // create/update varints
	b = append(b, 1)    // one field
	// Field name with a length far beyond the buffer.
	b = append(b, 0xff, 0xff, 0xff, 0xff, 0x0f)
	if _, err := Unmarshal(b); err == nil {
		t.Error("hostile length accepted")
	}
}

func TestUnmarshalDeepNesting(t *testing.T) {
	// Build a blob with a value nested beyond maxValueDepth.
	var b []byte
	b = appendString(b, "/c/d")
	b = append(b, 0, 0)
	b = append(b, 1)
	b = appendString(b, "f")
	for i := 0; i < maxValueDepth+2; i++ {
		b = append(b, byte(KindArray), 1)
	}
	b = append(b, byte(KindNull))
	if _, err := Unmarshal(b); err == nil {
		t.Error("deeply nested value accepted")
	}
}

// TestFieldPathWalk covers the dotted-path walk Get, SetPath and
// DeleteField share (FieldPath.Split is gone: no slice per lookup).
func TestFieldPathWalk(t *testing.T) {
	m := map[string]Value{"plain": Int(1), "a": String("not a map")}
	SetPath(m, "a.b.c", Int(2))
	SetPath(m, "a.b.d", Int(3))
	d := &Document{Name: MustName("/c/d"), Fields: m}
	for path, want := range map[FieldPath]Value{"plain": Int(1), "a.b.c": Int(2), "a.b.d": Int(3)} {
		if got, ok := d.Get(path); !ok || !Equal(got, want) {
			t.Errorf("Get(%q) = %v, %v; want %v", path, got, ok, want)
		}
	}
	for _, path := range []FieldPath{"", "missing", "plain.x", "a.x.c", "a.b.c.e", "a..b"} {
		if got, ok := d.Get(path); ok || !got.IsNull() {
			t.Errorf("Get(%q) = %v, %v; want null, false", path, got, ok)
		}
	}
	if _, ok := d.DeleteField("a.b.c").Get("a.b.c"); ok {
		t.Error("DeleteField left a.b.c behind")
	}
	if !d.DeleteField("plain.x").Equal(d) || !d.DeleteField("a.b.c.e").Equal(d) {
		t.Error("DeleteField through a non-map changed the document")
	}
}

func BenchmarkMarshal(b *testing.B) {
	d := sampleDoc()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Marshal(d)
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	blob := Marshal(sampleDoc())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(blob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompareDeep(b *testing.B) {
	v1 := sampleDoc().Fields["address"]
	v2 := v1.Clone()
	for i := 0; i < b.N; i++ {
		Compare(v1, v2)
	}
}

var _ = strings.Repeat // keep strings imported if tests change
