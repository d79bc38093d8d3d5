package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"firestore/firestore"
	"firestore/internal/core"
	"firestore/internal/doc"
)

// TestNonFiniteValuesOverHTTP: NaN, the infinities and geopoints with a
// non-finite coordinate, written through the SDK, read back equal over
// GET, a query page and a listen event, and the finite documents either
// side of them are answered too.
func TestNonFiniteValuesOverHTTP(t *testing.T) {
	region := core.NewRegion(core.Config{Name: "test"})
	t.Cleanup(region.Close)
	ts := httptest.NewServer(New(region))
	t.Cleanup(ts.Close)
	if _, err := region.CreateDatabase("app"); err != nil {
		t.Fatal(err)
	}
	client := firestore.NewClient(region, "app")
	nan, inf := math.NaN(), math.Inf(1)
	sdk := map[string]map[string]any{
		"/vals/a": {"v": 1.5, "negZero": math.Copysign(0, -1)},
		"/vals/b": {
			"nan": nan, "inf": inf, "ninf": -inf,
			"geoNaN": firestore.GeoPoint{Lat: nan}, "geoInf": firestore.GeoPoint{Lng: -inf},
			"nested": map[string]any{"l": []any{nan, 2.5}},
		},
		"/vals/c": {"v": 2.5},
	}
	want := map[string]map[string]doc.Value{
		"/vals/a": {"v": doc.Double(1.5), "negZero": doc.Double(math.Copysign(0, -1))},
		"/vals/b": {
			"nan": doc.Double(nan), "inf": doc.Double(inf), "ninf": doc.Double(-inf),
			"geoNaN": doc.Geo(nan, 0), "geoInf": doc.Geo(0, -inf),
			"nested": doc.Map(map[string]doc.Value{"l": doc.Array(doc.Double(nan), doc.Double(2.5))}),
		},
		"/vals/c": {"v": doc.Double(2.5)},
	}
	for name, data := range sdk {
		if err := client.Doc(name).Set(context.Background(), data); err != nil {
			t.Fatalf("set %s: %v", name, err)
		}
	}
	// check decodes a document's JSON fields as the server reads them and
	// compares each with the value written.
	check := func(where, name string, fields map[string]any) {
		t.Helper()
		got, err := fieldsFromJSON(fields)
		if err != nil || len(got) != len(want[name]) {
			t.Errorf("%s: %s has fields %v (%v), want %d", where, name, fields, err, len(want[name]))
			return
		}
		for k, w := range want[name] {
			if doc.Compare(got[k], w) != 0 {
				t.Errorf("%s: %s.%s = %v, want %v", where, name, k, got[k], w)
			}
		}
	}
	for name := range want {
		resp, body := do(t, ts, "GET", "/v1/databases/app/docs"+name, nil, nil)
		var d Document
		if err := decodeJSON(bytes.NewReader(body), &d); resp.StatusCode != 200 || err != nil {
			t.Fatalf("get %s = %d %q: %v", name, resp.StatusCode, body, err)
		}
		check("GET", name, d.Fields)
		if name == "/vals/a" {
			// -0.0 is a finite double, written as one, and keeps its sign.
			if z, _ := valueFromJSON(d.Fields["negZero"]); !bytes.Contains(body, []byte(`"negZero":-0.0`)) || !math.Signbit(z.DoubleVal()) {
				t.Errorf("get %s = %s, want negZero written as -0.0 and read back negative", name, body)
			}
		}
	}

	resp, body := do(t, ts, "POST", "/v1/databases/app/query", map[string]any{"collection": "/vals"}, nil)
	var page QueryPage
	if err := decodeJSON(bytes.NewReader(body), &page); resp.StatusCode != 200 || err != nil || len(page.Documents) != len(want) {
		t.Fatalf("query = %d %q: %v, want %d documents", resp.StatusCode, body, err, len(want))
	}
	for _, d := range page.Documents {
		check("query", d.Name, d.Fields)
	}

	req, _ := http.NewRequest("GET", ts.URL+"/v1/databases/app/listen?collection=/vals", nil)
	req.Header.Set("X-Privileged", "true")
	stream, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	var ev struct {
		Added []Document `json:"added"`
	}
	if data := readSSE(t, bufio.NewReader(stream.Body)); decodeJSON(strings.NewReader(data), &ev) != nil || len(ev.Added) != len(want) {
		t.Fatalf("listen event %q, want %d added documents", data, len(want))
	}
	for _, d := range ev.Added {
		check("listen", d.Name, d.Fields)
	}
}

// readSSE returns the data of the next server-sent event on r.
func readSSE(t *testing.T, r *bufio.Reader) string {
	t.Helper()
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("reading the stream: %v", err)
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			return data
		}
	}
}

// TestDoubleTagRefusals: $double holds only the three strings JSON has
// no number for, and a $geo coordinate is a number or one of them; the
// rest is refused like any tag that does not hold its type.
func TestDoubleTagRefusals(t *testing.T) {
	ts := newServer(t)
	do(t, ts, "POST", "/v1/databases", map[string]string{"id": "app"}, nil)
	for _, tagged := range []string{
		`{"$double": "1.5"}`,
		`{"$double": "nan"}`,
		`{"$double": "+Infinity"}`,
		`{"$double": "Inf"}`,
		`{"$double": 1.5}`,
		`{"$double": null}`,
		`{"$geo": ["1.5", 0]}`,
		`{"$geo": ["NaN", "x"]}`,
		`{"$map": 5}`,
	} {
		body := `{"t": ` + tagged + `}`
		if resp, raw := do(t, ts, "PUT", "/v1/databases/app/docs/c/tagged", body, nil); resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), `"t"`) {
			t.Errorf("put %s = %d %s, want 400 naming field \"t\"", body, resp.StatusCode, raw)
		}
	}
}

// FuzzValueJSON: every value a stored document may hold has a JSON form,
// and that form reads back as the same value.
func FuzzValueJSON(f *testing.F) {
	for _, seed := range [][]byte{
		{0, 1, 'x', 3, 0},    // NaN
		{0, 1, 'x', 3, 1},    // +Inf
		{0, 1, 'x', 3, 2},    // -Inf
		{0, 1, 'x', 8, 0, 4}, // Geo(NaN, 0)
		{0, 1, 'x', 10, 1, 4, '$', 'r', 'e', 'f', 5, 1, 'y'}, // a map whose one key is a tag
		{0, 1, 'x', 11, 64, 4, 1},                            // 64 maps and arrays around a timestamp in year 9999
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		g := valueGen(in)
		fields := g.fields()
		if doc.CheckFieldNames(fields) != nil {
			return
		}
		raw, err := json.Marshal(fieldsToJSON(fields))
		if err != nil {
			t.Fatalf("%v has no JSON form: %v", fields, err)
		}
		var back map[string]any
		if err := decodeJSON(bytes.NewReader(raw), &back); err != nil {
			t.Fatalf("%s: %v", raw, err)
		}
		got, err := fieldsFromJSON(back)
		if err != nil {
			t.Fatalf("%s does not read back: %v", raw, err)
		}
		if doc.Compare(doc.Map(got), doc.Map(fields)) != 0 {
			t.Fatalf("%s reads back as %v, want %v", raw, got, fields)
		}
	})
}

// valueGen draws document values from a fuzzer's bytes; past its end it
// reads zeros.
type valueGen []byte

func (g *valueGen) next() byte {
	if len(*g) == 0 {
		return 0
	}
	b := (*g)[0]
	*g = (*g)[1:]
	return b
}

func (g *valueGen) uint64() (u uint64) {
	for range 8 {
		u = u<<8 | uint64(g.next())
	}
	return u
}

// str is up to 15 bytes made valid UTF-8: JSON has no other strings.
func (g *valueGen) str() string {
	b := make([]byte, g.next()%16)
	for i := range b {
		b[i] = g.next()
	}
	return strings.ToValidUTF8(string(b), "\uFFFD")
}

// The edges a generated number is drawn from by its first byte; a byte
// past them reads the number's bits from the next eight.
var (
	edgeInts    = []int64{0, -1, math.MinInt64, math.MaxInt64, 1<<53 + 1}
	edgeDoubles = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 0.1, math.MaxFloat64, math.SmallestNonzeroFloat64}
	edgeTimes   = []time.Time{time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(9999, 12, 31, 23, 59, 59, 999999000, time.UTC)}
)

func (g *valueGen) int() int64 {
	if i := int(g.next()); i < len(edgeInts) {
		return edgeInts[i]
	}
	return int64(g.uint64())
}

func (g *valueGen) double() float64 {
	if i := int(g.next()); i < len(edgeDoubles) {
		return edgeDoubles[i]
	}
	return math.Float64frombits(g.uint64())
}

// time is a timestamp in years 1 to 9999, the range a document holds.
func (g *valueGen) time() time.Time {
	if i := int(g.next()); i < len(edgeTimes) {
		return edgeTimes[i]
	}
	lo, hi := edgeTimes[0].UnixMicro(), edgeTimes[1].UnixMicro()
	return time.UnixMicro(lo + int64(g.uint64()%uint64(hi-lo+1)))
}

// maxDepth is how deep a field's value nests in a document the doc
// codec reads.
const maxDepth = 64

func (g *valueGen) fields() map[string]doc.Value {
	m := map[string]doc.Value{}
	for n := g.next()%4 + 1; n > 0; n-- {
		m[g.str()] = g.value(0)
	}
	return m
}

// value is a value of any of the ten types at depth.
func (g *valueGen) value(depth int) doc.Value {
	switch g.next() % 12 {
	case 1:
		return doc.Bool(g.next()&1 == 1)
	case 2:
		return doc.Int(g.int())
	case 3:
		return doc.Double(g.double())
	case 4:
		return doc.Timestamp(g.time())
	case 5:
		return doc.String(g.str())
	case 6:
		return doc.Bytes([]byte(g.str()))
	case 7:
		return doc.Reference("/c/" + g.str())
	case 8:
		return doc.Geo(g.double(), g.double())
	case 9:
		arr := make([]doc.Value, g.next()%4)
		for i := range arr {
			arr[i] = g.value(depth + 1)
		}
		return doc.Array(arr...)
	case 10:
		m := map[string]doc.Value{}
		for n := g.next() % 4; n > 0; n-- {
			m[g.str()] = g.value(depth + 1)
		}
		return doc.Map(m)
	case 11:
		// A value under up to 64 levels of one-element maps and arrays.
		levels := min(int(g.next()), maxDepth-depth)
		v := g.value(depth + levels)
		for i := 0; i < levels; i++ {
			if i%2 == 0 {
				v = doc.Array(v)
			} else {
				v = doc.Map(map[string]doc.Value{"m": v})
			}
		}
		return v
	}
	return doc.Null()
}
