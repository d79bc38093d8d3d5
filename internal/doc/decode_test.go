package doc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// TestValueSize pins the size Value's layout was chosen for. Go stores a
// map element of more than 128 bytes behind a pointer, one allocation
// per field decoded (Value was 144), and stores anything smaller inline
// in groups of eight slots — so a one-field Fields map costs
// 8 + 8*(16 + sizeof(Value)) bytes whatever it holds: 520 at 48 bytes
// (a 576-byte size class), 968 at 104 (1024), against the 200 + 144 of
// the indirect layout — which is what pushed the one-field YCSB
// document's reads over their byte budget at 104 (EXPERIMENTS.md
// "DECODE").
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got > 48 {
		t.Errorf("sizeof(Value) = %d, want <= 48", got)
	}
}

// restaurantDoc is the benchmark's query_mix document: twelve fields,
// an array of three strings, a map of three.
func restaurantDoc() *Document {
	return &Document{Name: MustName("/restaurants/r000042"), CreateTime: 7, Fields: map[string]Value{
		"name":       String("Restaurant 42"),
		"city":       String("LA"),
		"category":   String("pizza"),
		"price":      Int(3),
		"avgRating":  Double(2.1),
		"numRatings": Int(42),
		"open":       Bool(false),
		"owner":      String("owner-42"),
		"phone":      String("+1-555-0000042"),
		"createdAt":  Int(1600000042),
		"tags":       Array(String("patio"), String("late"), String("kids")),
		"address":    Map(map[string]Value{"street": String("43 Main St"), "zip": String("10042"), "floor": Int(0)}),
	}}
}

// ycsbDoc is the benchmark's YCSB document: one 900-byte binary field.
func ycsbDoc() *Document {
	return &Document{Name: MustName("/ycsb/user00000042"), CreateTime: 7,
		Fields: map[string]Value{"field0": Bytes(bytes.Repeat([]byte{0xa5}, 900))}}
}

// TestUnmarshalAllocs holds what decoding costs. The restaurant
// document took 50 allocations when every string was its own copy and
// every 144-byte map element its own object; now: the Document, the
// name's segments, the arena, the Fields map (4: twelve fields are two
// groups behind a directory), the array's elements and box, the nested
// map (2). The YCSB document took 8 and must not take more: the box of
// its bytes value stands where the name, field-name and element copies
// stood.
func TestUnmarshalAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector changes allocation counts")
	}
	for _, tc := range []struct {
		name string
		d    *Document
		max  float64
	}{{"restaurant", restaurantDoc(), 12}, {"ycsb", ycsbDoc(), 8}} {
		blob := Marshal(tc.d)
		got := testing.AllocsPerRun(200, func() {
			if _, err := Unmarshal(blob); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("Unmarshal(%s): %.0f allocations", tc.name, got)
		if got > tc.max {
			t.Errorf("Unmarshal(%s) allocates %.0f times, want <= %.0f", tc.name, got, tc.max)
		}
	}
}

// TestUnmarshalOwnsItsBytes: nothing a decoded document holds aliases
// the blob it came from, so the caller may reuse or scribble on it.
func TestUnmarshalOwnsItsBytes(t *testing.T) {
	for _, d := range []*Document{restaurantDoc(), ycsbDoc()} {
		blob := Marshal(d)
		got, err := Unmarshal(blob)
		if err != nil {
			t.Fatal(err)
		}
		for i := range blob {
			blob[i] ^= 0xff
		}
		if !got.Equal(d) || got.Name.String() != d.Name.String() {
			t.Errorf("%s changed when its blob was overwritten: %v", d.Name, got)
		}
	}
}

func TestUnmarshalNamed(t *testing.T) {
	d := restaurantDoc()
	blob := Marshal(d)
	got, err := UnmarshalNamed(blob, d.Name)
	if err != nil || !got.Equal(d) {
		t.Fatalf("UnmarshalNamed = %v, %v", got, err)
	}
	for _, other := range []string{"/restaurants/r000043", "/restaurants/r00004", "/restaurants/r0000421", "/restaurants/r000042/a/b", "/x/r000042"} {
		if _, err := UnmarshalNamed(blob, MustName(other)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("blob of %s read as %s: err = %v, want ErrCorrupt", d.Name, other, err)
		}
	}
}

// seal appends the checksum Marshal would, so a hand-built or mutated
// body gets past the CRC check to the decoder proper.
func seal(body []byte) []byte {
	return binary.BigEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

// TestUnmarshalFieldCount: the top-level field count is checked against
// the bytes that remain like every nested count. It used to go straight
// to make(map, n): a blob of twenty bytes with a valid checksum bought
// whatever it asked for (1<<22 fields, some 100 MB) before the decoder
// noticed there was no first field.
func TestUnmarshalFieldCount(t *testing.T) {
	head := append(binary.AppendUvarint(nil, 4), "/c/d"...)
	head = binary.AppendVarint(binary.AppendVarint(head, 0), 0)
	for _, n := range []uint64{1, 2, 1 << 22, 1 << 60, math.MaxUint64} {
		body := binary.AppendUvarint(bytes.Clone(head), n)
		body = append(body, 1, 'k') // half a field: a name, no value
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Unmarshal(seal(body))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("field count %d over a 2-byte remainder: err = %v, want ErrCorrupt", n, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("field count %d over a 2-byte remainder: decoder allocated %d bytes before refusing", n, got)
		}
	}
}

// TestTimestampRange: a timestamp is an int64 of microseconds; a time
// past either end saturates instead of wrapping round to the other, what
// it saturates to round-trips, and a stored second out of range is
// corruption, not some other year.
func TestTimestampRange(t *testing.T) {
	far := time.Date(400_000, 1, 1, 0, 0, 0, 0, time.UTC)
	past := time.Date(-400_000, 1, 1, 0, 0, 0, 0, time.UTC)
	hi, lo := Timestamp(far), Timestamp(past)
	if Compare(lo, Timestamp(time.Unix(0, 0))) >= 0 || Compare(Timestamp(time.Unix(0, 0)), hi) >= 0 {
		t.Fatalf("out-of-range times wrapped: %v, %v", lo.TimeVal(), hi.TimeVal())
	}
	d := &Document{Name: MustName("/c/d"), Fields: map[string]Value{"hi": hi, "lo": lo}}
	got, err := Unmarshal(Marshal(d))
	if err != nil || !got.Equal(d) {
		t.Fatalf("saturated timestamps do not round-trip: %v, %v", got, err)
	}
	head := append(binary.AppendUvarint(nil, 4), "/c/d"...)
	head = append(binary.AppendVarint(binary.AppendVarint(head, 0), 0), 1, 1, 'k', byte(KindTimestamp))
	for _, sec := range []int64{far.Unix(), past.Unix(), math.MaxInt64, math.MinInt64} {
		body := binary.AppendVarint(binary.AppendVarint(bytes.Clone(head), sec), 0)
		if _, err := Unmarshal(seal(body)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("stored second %d: err = %v, want ErrCorrupt", sec, err)
		}
	}
}

// FuzzUnmarshal: the decoder survives arbitrary bodies (the harness
// re-seals the checksum, or the fuzzer would never get past it), and
// what it accepts re-encodes to a fixed point: Marshal(Unmarshal(b))
// decodes to a document that marshals to the same bytes.
func FuzzUnmarshal(f *testing.F) {
	every := &Document{Name: MustName("/a/b/c/d"), UpdateTime: 9, Fields: map[string]Value{
		"null": Null(), "bool": Bool(true), "int": Int(math.MinInt64), "double": Double(math.NaN()),
		"ts": Timestamp(time.Unix(-1, 999_999_999)), "tsEnd": Timestamp(time.Date(-400_000, 1, 1, 0, 0, 0, 0, time.UTC)), "string": String("s\x00"), "bytes": Bytes([]byte{0, 1}),
		"ref": Reference("/a/b"), "geo": Geo(-90, 180), "array": Array(Null(), Array(), Map(nil)),
		"map": Map(map[string]Value{"": Int(1), "k": Map(map[string]Value{"deep": Bytes(nil)})}),
	}}
	for _, d := range []*Document{restaurantDoc(), ycsbDoc(), every, {Name: MustName("/c/d")}} {
		blob := Marshal(d)
		f.Add(blob[:len(blob)-4])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		d, err := Unmarshal(seal(body))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error outside ErrCorrupt: %v", err)
			}
			return
		}
		once := Marshal(d)
		d2, err := Unmarshal(once)
		if err != nil {
			t.Fatalf("re-encoded document does not decode: %v\n%x", err, once)
		}
		if twice := Marshal(d2); !bytes.Equal(once, twice) {
			t.Fatalf("not a fixed point:\n%x\n%x", once, twice)
		}
		if d3, err := UnmarshalNamed(once, d2.Name); err != nil || !d3.Equal(d2) {
			t.Fatalf("UnmarshalNamed disagrees with Unmarshal: %v, %v", d3, err)
		}
	})
}

func BenchmarkUnmarshalRestaurant(b *testing.B) {
	blob := Marshal(restaurantDoc())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(blob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshalYCSB(b *testing.B) {
	blob := Marshal(ycsbDoc())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(blob); err != nil {
			b.Fatal(err)
		}
	}
}
