package encoding

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"firestore/internal/doc"
)

func enc(v doc.Value) []byte  { return EncodeValue(nil, v) }
func encD(v doc.Value) []byte { return EncodeValueDesc(nil, v) }

func TestEncodePreservesOrderSamples(t *testing.T) {
	// A cross-section of values in ascending doc.Compare order.
	ordered := []doc.Value{
		doc.Null(),
		doc.Bool(false),
		doc.Bool(true),
		doc.Double(math.NaN()),
		doc.Double(math.Inf(-1)),
		doc.Double(-1e300),
		doc.Int(math.MinInt64),
		doc.Int(-1000000),
		doc.Double(-0.5),
		doc.Int(0),
		doc.Double(0.5),
		doc.Int(1),
		doc.Int(2),
		doc.Double(2.5),
		doc.Int(1 << 54),
		doc.Int(1<<54 + 1), // not representable as float64
		doc.Int(math.MaxInt64 - 1),
		doc.Int(math.MaxInt64),
		doc.Double(1e19),
		doc.Double(math.Inf(1)),
		doc.Timestamp(time.Unix(0, 0)),
		doc.Timestamp(time.Unix(1000, 5000)),
		doc.String(""),
		doc.String("a"),
		doc.String("a\x00"),
		doc.String("a\x00b"),
		doc.String("ab"),
		doc.String("b"),
		doc.Bytes(nil),
		doc.Bytes([]byte{0}),
		doc.Bytes([]byte{0, 0}),
		doc.Bytes([]byte{1}),
		doc.Bytes([]byte{0xff}),
		doc.Reference("/a/b"),
		doc.Reference("/a/c"),
		doc.Geo(math.NaN(), 0), // NaN first, as for numbers
		doc.Geo(math.Inf(-1), 0),
		doc.Geo(-10, 5),
		doc.Geo(0, math.NaN()),
		doc.Geo(0, 1),
		doc.Geo(3, -2),
		doc.Geo(3, 7),
		doc.Array(),
		doc.Array(doc.Int(1)),
		doc.Array(doc.Int(1), doc.Int(0)),
		doc.Array(doc.Int(2)),
		doc.Map(map[string]doc.Value{}),
		doc.Map(map[string]doc.Value{"a": doc.Int(1)}),
		doc.Map(map[string]doc.Value{"a": doc.Int(1), "b": doc.Int(0)}),
		doc.Map(map[string]doc.Value{"a": doc.Int(2)}),
		doc.Map(map[string]doc.Value{"b": doc.Int(0)}),
	}
	for i := range ordered {
		for j := range ordered {
			want := doc.Compare(ordered[i], ordered[j])
			if got := sign(bytes.Compare(enc(ordered[i]), enc(ordered[j]))); got != want {
				t.Errorf("asc: Compare(enc(%v), enc(%v)) = %d, want %d", ordered[i], ordered[j], got, want)
			}
			if got := sign(bytes.Compare(encD(ordered[i]), encD(ordered[j]))); got != -want {
				t.Errorf("desc: Compare(encD(%v), encD(%v)) = %d, want %d", ordered[i], ordered[j], got, -want)
			}
		}
	}
}

func sign(c int) int {
	switch {
	case c < 0:
		return -1
	case c > 0:
		return 1
	}
	return 0
}

func TestIntDoubleCanonical(t *testing.T) {
	// Numerically equal values must encode identically so equality
	// predicates hit one index range.
	pairs := [][2]doc.Value{
		{doc.Int(3), doc.Double(3)},
		{doc.Int(0), doc.Double(math.Copysign(0, -1))},
		{doc.Int(1 << 52), doc.Double(1 << 52)},
		{doc.Int(-1 << 60), doc.Double(-(1 << 60))},
		// Geopoints too: the index diff skips doc.Equal values unencoded.
		{doc.Geo(math.Copysign(0, -1), 1), doc.Geo(0, 1)},
		{doc.Geo(1, math.Copysign(0, -1)), doc.Geo(1, 0)},
		{doc.Geo(math.NaN(), 1), doc.Geo(math.Float64frombits(0xfff8000000000001), 1)},
	}
	for _, p := range pairs {
		if !doc.Equal(p[0], p[1]) {
			t.Errorf("%v != %v", p[0], p[1])
		}
		if !bytes.Equal(enc(p[0]), enc(p[1])) {
			t.Errorf("enc(%v) != enc(%v)", p[0], p[1])
		}
	}
}

func TestEncodeOrderQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(_ int64) bool {
		a, b := randValue(rng, 0), randValue(rng, 0)
		want := doc.Compare(a, b)
		got := sign(bytes.Compare(enc(a), enc(b)))
		if got != want {
			t.Logf("a=%v b=%v want %d got %d", a, b, want, got)
			return false
		}
		return sign(bytes.Compare(encD(a), encD(b))) == -want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// randValue mirrors the generator in internal/doc tests.
func randValue(rng *rand.Rand, depth int) doc.Value {
	max := 10
	if depth > 2 {
		max = 8
	}
	switch rng.Intn(max) {
	case 0:
		return doc.Null()
	case 1:
		return doc.Bool(rng.Intn(2) == 0)
	case 2:
		switch rng.Intn(3) {
		case 0:
			return doc.Int(rng.Int63() - rng.Int63())
		case 1:
			return doc.Int(int64(rng.Intn(10)))
		default:
			return doc.Double(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(30)-15)))
		}
	case 3:
		return doc.Timestamp(time.Unix(rng.Int63n(1e9), rng.Int63n(1e9)))
	case 4:
		return doc.String(randString(rng))
	case 5:
		b := make([]byte, rng.Intn(6))
		rng.Read(b)
		return doc.Bytes(b)
	case 6:
		return doc.Reference("/c/" + randString(rng))
	case 7:
		return doc.Geo(float64(rng.Intn(100)), float64(rng.Intn(100)))
	case 8:
		n := rng.Intn(3)
		arr := make([]doc.Value, n)
		for i := range arr {
			arr[i] = randValue(rng, depth+1)
		}
		return doc.Array(arr...)
	default:
		n := rng.Intn(3)
		m := make(map[string]doc.Value, n)
		for i := 0; i < n; i++ {
			m[randString(rng)] = randValue(rng, depth+1)
		}
		return doc.Map(m)
	}
}

func randString(rng *rand.Rand) string {
	const alphabet = "ab\x00\xffz"
	n := rng.Intn(5)
	out := make([]byte, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, alphabet[rng.Intn(len(alphabet))])
	}
	return string(out)
}

func TestEncodingsPrefixFree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var encs [][]byte
	for i := 0; i < 300; i++ {
		encs = append(encs, enc(randValue(rng, 0)))
	}
	for i, a := range encs {
		for j, b := range encs {
			if i != j && len(a) < len(b) && bytes.HasPrefix(b, a) {
				t.Fatalf("encoding %x is a prefix of %x", a, b)
			}
		}
	}
}

func TestTupleConcatenationOrder(t *testing.T) {
	// Composite keys: (city asc, rating desc). Byte order of concatenated
	// encodings must equal (city asc, rating desc) logical order.
	type row struct {
		city   string
		rating int64
	}
	rows := []row{ // in expected order
		{"NY", 5}, {"NY", 3}, {"SF", 9}, {"SF", 9}, {"SF", 1},
	}
	var keys [][]byte
	for _, r := range rows {
		k := EncodeValue(nil, doc.String(r.city))
		k = EncodeValueDesc(k, doc.Int(r.rating))
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		if bytes.Compare(keys[i-1], keys[i]) > 0 {
			t.Errorf("tuple keys out of order at %d: %v > %v", i, rows[i-1], rows[i])
		}
	}
}

func TestEncodeNameRoundTrip(t *testing.T) {
	names := []string{
		"/a/b",
		"/restaurants/one/ratings/2",
		"/c/\xff\xff",
		"/c/x.y.z",
	}
	for _, s := range names {
		n := doc.MustName(s)
		b := EncodeName(nil, n)
		got, used, err := DecodeName(b)
		if err != nil {
			t.Fatalf("DecodeName(%q): %v", s, err)
		}
		if used != len(b) {
			t.Errorf("DecodeName(%q) consumed %d of %d", s, used, len(b))
		}
		if got.Compare(n) != 0 {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
}

func TestEncodeNameOrder(t *testing.T) {
	ordered := []string{
		"/a/a",
		"/a/a/b/a",
		"/a/a!b", // '!' < '/' in ASCII but segment-wise "a!b" > "a"
		"/a/b",
		"/b/a",
	}
	for i := range ordered {
		for j := range ordered {
			a, b := doc.MustName(ordered[i]), doc.MustName(ordered[j])
			want := a.Compare(b)
			got := sign(bytes.Compare(EncodeName(nil, a), EncodeName(nil, b)))
			if got != want {
				t.Errorf("EncodeName order (%s, %s) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestDecodeNameErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x05},             // truncated
		{'a', escape},      // dangling escape
		{'a', escape, 0x7}, // bad escape
		EncodeName(nil, doc.MustName("/a/b"))[:3],
		// Odd number of segments: one segment then terminator.
		append(AppendEscaped(nil, "seg"), terminator),
	}
	for i, c := range cases {
		if _, _, err := DecodeName(c); err == nil {
			t.Errorf("case %d: DecodeName accepted %x", i, c)
		}
	}
}

func TestDecodeNameWithTrailingData(t *testing.T) {
	b := EncodeName(nil, doc.MustName("/a/b"))
	n := len(b)
	b = append(b, 0xde, 0xad)
	got, used, err := DecodeName(b)
	if err != nil || used != n || got.String() != "/a/b" {
		t.Fatalf("DecodeName with trailing = %v, %d, %v", got, used, err)
	}
}

func TestPrefixSuccessor(t *testing.T) {
	cases := []struct {
		in   []byte
		want []byte
	}{
		{[]byte{1, 2, 3}, []byte{1, 2, 4}},
		{[]byte{1, 0xff}, []byte{2}},
		{[]byte{0xff, 0xff}, nil},
		{[]byte{0xff, 5, 0xff}, []byte{0xff, 6}},
	}
	for _, c := range cases {
		got := PrefixSuccessor(c.in)
		if !bytes.Equal(got, c.want) {
			t.Errorf("PrefixSuccessor(%x) = %x, want %x", c.in, got, c.want)
		}
	}
	// Successor property: in < Successor(in), and nothing in between that
	// has `in` as a prefix... spot check ordering.
	in := []byte{1, 2}
	if bytes.Compare(in, Successor(in)) >= 0 {
		t.Error("Successor not greater")
	}
	if bytes.Compare(Successor(in), []byte{1, 2, 1}) >= 0 {
		t.Error("Successor too large")
	}
}

func TestEncodeCollectionIsPrefixOfMembers(t *testing.T) {
	c := doc.MustCollection("/restaurants/one/ratings")
	member := doc.MustName("/restaurants/one/ratings/2")
	cp := EncodeCollection(nil, c)
	mb := EncodeName(nil, member)
	if !bytes.HasPrefix(mb, cp) {
		t.Error("collection encoding is not a prefix of member name encoding")
	}
	other := doc.MustName("/restaurants/one/reviews/2")
	if bytes.HasPrefix(EncodeName(nil, other), cp) {
		t.Error("non-member shares collection prefix")
	}
}

func TestInvert(t *testing.T) {
	in := []byte{0x00, 0x7f, 0xff}
	got := Invert(in)
	if !bytes.Equal(got, []byte{0xff, 0x80, 0x00}) {
		t.Errorf("Invert = %x", got)
	}
	if !bytes.Equal(Invert(got), in) {
		t.Error("double inversion not identity")
	}
}

func BenchmarkEncodeValue(b *testing.B) {
	v := doc.Map(map[string]doc.Value{
		"city":   doc.String("SF"),
		"rating": doc.Double(4.5),
		"tags":   doc.Array(doc.String("a"), doc.String("b")),
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EncodeValue(nil, v)
	}
}

func BenchmarkEncodeName(b *testing.B) {
	n := doc.MustName("/restaurants/one/ratings/2")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EncodeName(nil, n)
	}
}
