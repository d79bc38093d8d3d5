package encoding

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"firestore/internal/doc"
)

// updateParent regenerates testdata/values_parent.golden. The fixture
// is only meaningful when written by the commit whose behaviour is being
// preserved: it was generated at the parent of the change that shrank
// doc.Value to three words (PR 27), by running this same file there.
var updateParent = flag.Bool("update-parent", false, "rewrite testdata/values_parent.golden from this commit's doc.Value")

const parentFixture = "testdata/values_parent.golden"

// parentValues is a fixed pseudo-random population of values of every
// kind, dense in the edges where a representation change could slip:
// timestamps before 1970 and on either side of a microsecond, NaN and
// signed zeros, int64 extremes and the 2^53 float boundary, geopoints,
// empty and nested containers.
func parentValues() []doc.Value {
	r := rand.New(rand.NewSource(27))
	ints := []int64{0, 1, -1, math.MaxInt64, math.MinInt64, 1 << 53, 1<<53 + 1, -(1 << 53), -(1<<53 + 1), math.MaxInt64 - 1}
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1 << 53, 1<<53 + 2, 9.223372036854776e18,
		-9.223372036854776e18, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, 3, 3.5, -3.5}
	times := []time.Time{
		time.Unix(0, 0), time.Unix(0, -1), time.Unix(0, 999), time.Unix(0, 1000), time.Unix(0, -1000), time.Unix(0, -1001),
		time.Unix(-1, 999_999_999), time.Unix(1, 999_999_999), time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 999_999_999, time.UTC), time.Date(1969, 7, 20, 20, 17, 40, 123_456_789, time.FixedZone("x", -5*3600)),
	}
	words := []string{"", "a", "b", "ab", "a\x00b", "\x00", "\xff", "é", "日本", "/c/d", "z"}
	var gen func(depth int) doc.Value
	gen = func(depth int) doc.Value {
		k := r.Intn(10)
		if depth >= 3 && k >= 8 {
			k = r.Intn(8)
		}
		switch doc.Kind(k) {
		case doc.KindBool:
			return doc.Bool(r.Intn(2) == 0)
		case doc.KindNumber:
			switch r.Intn(4) {
			case 0:
				return doc.Int(ints[r.Intn(len(ints))])
			case 1:
				return doc.Double(floats[r.Intn(len(floats))])
			case 2:
				return doc.Int(r.Int63n(2000) - 1000)
			}
			return doc.Double(float64(r.Int63n(4000)-2000) / 2)
		case doc.KindTimestamp:
			if r.Intn(2) == 0 {
				return doc.Timestamp(times[r.Intn(len(times))])
			}
			return doc.Timestamp(time.Unix(r.Int63n(4e9)-2e9, r.Int63n(1e9)))
		case doc.KindString:
			return doc.String(words[r.Intn(len(words))])
		case doc.KindBytes:
			if r.Intn(4) == 0 {
				return doc.Bytes(nil)
			}
			return doc.Bytes([]byte(words[r.Intn(len(words))]))
		case doc.KindReference:
			return doc.Reference("/c/" + words[1+r.Intn(3)])
		case doc.KindGeoPoint:
			return doc.Geo(floats[r.Intn(len(floats))], float64(r.Intn(360)-180))
		case doc.KindArray:
			arr := make([]doc.Value, r.Intn(4))
			for i := range arr {
				arr[i] = gen(depth + 1)
			}
			return doc.Array(arr...)
		case doc.KindMap:
			m := map[string]doc.Value{}
			for i := r.Intn(4); i > 0; i-- {
				m[words[r.Intn(len(words))]] = gen(depth + 1)
			}
			return doc.Map(m)
		}
		return doc.Null()
	}
	vs := make([]doc.Value, 400)
	for i := range vs {
		vs[i] = gen(0)
	}
	return vs
}

// parentLines renders what the fixture pins for each value: the stored
// document bytes (doc.Marshal), the index-key bytes (EncodeValue), and a
// CRC of its row of the Compare matrix against every other value.
func parentLines(vs []doc.Value) []string {
	lines := make([]string, len(vs))
	for i, v := range vs {
		d := &doc.Document{Name: doc.MustName("/c/d"), Fields: map[string]doc.Value{"v": v}, CreateTime: 7}
		row := make([]byte, len(vs))
		for j, w := range vs {
			row[j] = byte('1' + doc.Compare(v, w)) // Equal is Compare == 0
		}
		lines[i] = fmt.Sprintf("%x %x %08x", doc.Marshal(d), EncodeValue(nil, v), crc32.ChecksumIEEE(row))
	}
	return lines
}

// TestValueMatchesParent proves the three-word doc.Value is, to every
// consumer, the value the parent commit had: Compare, Equal, Marshal and
// EncodeValue agree bit for bit with the fixture written there, and the
// parent's stored bytes decode to values that compare equal and encode
// back to the same bytes.
func TestValueMatchesParent(t *testing.T) {
	vs := parentValues()
	got := parentLines(vs)
	if *updateParent {
		if err := os.WriteFile(parentFixture, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(parentFixture)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(want) != len(got) {
		t.Fatalf("fixture has %d values, generator makes %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("value %d (%v):\n got %s\nwant %s", i, vs[i], got[i], want[i])
			continue
		}
		blob, _ := hex.DecodeString(strings.Fields(want[i])[0])
		d, err := doc.Unmarshal(blob)
		if err != nil {
			t.Errorf("value %d (%v): parent's stored bytes do not decode: %v", i, vs[i], err)
			continue
		}
		if back := d.Fields["v"]; !doc.Equal(back, vs[i]) || back.Kind() != vs[i].Kind() || back.IsInt() != vs[i].IsInt() {
			t.Errorf("value %d: decoded %v, want %v", i, back, vs[i])
		}
		if again := doc.Marshal(d); !bytes.Equal(again, blob) {
			t.Errorf("value %d (%v): re-marshalled bytes differ from the parent's", i, vs[i])
		}
	}
}
