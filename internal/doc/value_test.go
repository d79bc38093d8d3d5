package doc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestKindString(t *testing.T) {
	if KindNull.String() != "null" || KindMap.String() != "map" {
		t.Error("kind names wrong")
	}
	if Kind(99).String() != "invalid" {
		t.Error("out-of-range kind should print invalid")
	}
}

func TestCrossTypeOrder(t *testing.T) {
	// One representative per kind, in the documented cross-type order.
	ordered := []Value{
		Null(),
		Bool(true),
		Int(999999),
		Timestamp(time.Unix(0, 0)),
		String("zzz"),
		Bytes([]byte{0xff}),
		Reference("/a/b"),
		Geo(1, 1),
		Array(Int(1)),
		Map(map[string]Value{"a": Int(1)}),
	}
	for i := range ordered {
		for j := range ordered {
			want := cmpInt(i, j)
			if got := Compare(ordered[i], ordered[j]); got != want {
				t.Errorf("Compare(%v, %v) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestNumberOrder(t *testing.T) {
	// NaN < -Inf < negatives < -0 == 0 == ints < positives < +Inf, with
	// int/double mixing numerically.
	ordered := []Value{
		Double(math.NaN()),
		Double(math.Inf(-1)),
		Double(-1e300),
		Int(math.MinInt64),
		Int(-5),
		Double(-4.5),
		Double(-0.0),
		Double(0.5),
		Int(1),
		Double(1.5),
		Int(2),
		Int(1 << 60),
		Double(1e300),
		Double(math.Inf(1)),
	}
	for i := range ordered {
		for j := range ordered {
			want := cmpInt(i, j)
			if got := Compare(ordered[i], ordered[j]); got != want {
				t.Errorf("Compare(%v, %v) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestNumberEquality(t *testing.T) {
	if Compare(Int(3), Double(3.0)) != 0 {
		t.Error("3 != 3.0")
	}
	if Compare(Double(0), Double(math.Copysign(0, -1))) != 0 {
		t.Error("0 != -0")
	}
	if Compare(Double(math.NaN()), Double(math.NaN())) != 0 {
		t.Error("NaN != NaN in sort order")
	}
}

func TestLargeIntDoubleComparison(t *testing.T) {
	// 2^63-1 is not representable in float64; nearest is 2^63.
	big := Int(math.MaxInt64)
	if Compare(big, Double(9.3e18)) != -1 {
		t.Error("MaxInt64 should sort below 9.3e18")
	}
	if Compare(big, Double(9.2e18)) != 1 {
		t.Error("MaxInt64 should sort above 9.2e18")
	}
	// A float64 exactly equal to a large int.
	if Compare(Int(1<<60), Double(float64(int64(1)<<60))) != 0 {
		t.Error("1<<60 int vs exact double should be equal")
	}
	// Fractional part matters near large ints.
	if Compare(Double(float64(1<<60)), Int(1<<60)) != 0 {
		t.Error("exact double vs int")
	}
}

func TestStringBytesOrder(t *testing.T) {
	if Compare(String("a"), String("b")) != -1 || Compare(String("b"), String("a")) != 1 {
		t.Error("string order")
	}
	if Compare(Bytes([]byte("a")), Bytes([]byte("ab"))) != -1 {
		t.Error("prefix bytes should sort first")
	}
	if Compare(Bytes(nil), Bytes([]byte{0})) != -1 {
		t.Error("empty bytes should sort first")
	}
}

func TestArrayOrder(t *testing.T) {
	if Compare(Array(Int(1)), Array(Int(1), Int(0))) != -1 {
		t.Error("shorter array with equal prefix should sort first")
	}
	if Compare(Array(Int(2)), Array(Int(1), Int(99))) != 1 {
		t.Error("element order dominates length")
	}
	if Compare(Array(), Array(Null())) != -1 {
		t.Error("empty array first")
	}
}

func TestMapOrder(t *testing.T) {
	a := Map(map[string]Value{"a": Int(1), "b": Int(2)})
	b := Map(map[string]Value{"a": Int(1), "c": Int(0)})
	if Compare(a, b) != -1 {
		t.Error("map key order should dominate")
	}
	c := Map(map[string]Value{"a": Int(1)})
	if Compare(c, a) != -1 {
		t.Error("map prefix should sort first")
	}
	same1 := Map(map[string]Value{"x": String("v"), "y": Int(2)})
	same2 := Map(map[string]Value{"y": Int(2), "x": String("v")})
	if Compare(same1, same2) != 0 {
		t.Error("map comparison should be insertion-order independent")
	}
}

func TestGeoOrder(t *testing.T) {
	if Compare(Geo(1, 5), Geo(2, 0)) != -1 {
		t.Error("lat dominates")
	}
	if Compare(Geo(1, 5), Geo(1, 6)) != -1 {
		t.Error("lng breaks ties")
	}
	// Coordinates are ordered totally, as numbers are: NaN first and
	// equal to itself (it used to equal everything), -0.0 equal to 0.
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	if Compare(Geo(nan, 1), Geo(math.Inf(-1), 1)) != -1 || Compare(Geo(5, 1), Geo(nan, 1)) != 1 {
		t.Error("NaN latitude must sort first")
	}
	if !Equal(Geo(nan, nan), Geo(nan, nan)) || Equal(Geo(nan, 1), Geo(5, 1)) || Equal(Geo(1, nan), Geo(1, 2)) {
		t.Error("NaN equals only NaN")
	}
	if !Equal(Geo(negZero, negZero), Geo(0, 0)) {
		t.Error("-0.0 != 0")
	}
}

func TestTimestampTruncation(t *testing.T) {
	v := Timestamp(time.Unix(1, 1234))
	if v.TimeVal().Nanosecond() != 1000 {
		t.Errorf("timestamps should truncate to microseconds, got %dns", v.TimeVal().Nanosecond())
	}
}

// randValue generates a random value of bounded depth for property tests.
func randValue(rng *rand.Rand, depth int) Value {
	max := 10
	if depth > 2 {
		max = 8 // no arrays/maps below depth 2
	}
	switch rng.Intn(max) {
	case 0:
		return Null()
	case 1:
		return Bool(rng.Intn(2) == 0)
	case 2:
		if rng.Intn(2) == 0 {
			return Int(rng.Int63() - rng.Int63())
		}
		return Double(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20)))
	case 3:
		return Timestamp(time.Unix(rng.Int63n(1e9), rng.Int63n(1e9)))
	case 4:
		return String(randString(rng))
	case 5:
		b := make([]byte, rng.Intn(8))
		rng.Read(b)
		return Bytes(b)
	case 6:
		return Reference("/c/" + randString(rng))
	case 7:
		return Geo(rng.Float64()*180-90, rng.Float64()*360-180)
	case 8:
		n := rng.Intn(4)
		arr := make([]Value, n)
		for i := range arr {
			arr[i] = randValue(rng, depth+1)
		}
		return Array(arr...)
	default:
		n := rng.Intn(4)
		m := make(map[string]Value, n)
		for i := 0; i < n; i++ {
			m[randString(rng)] = randValue(rng, depth+1)
		}
		return Map(m)
	}
}

func randString(rng *rand.Rand) string {
	const alphabet = "ab\x00\xffzé"
	n := rng.Intn(6)
	out := make([]byte, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, alphabet[rng.Intn(len(alphabet))])
	}
	return string(out)
}

// TestCompareTotalOrderProperties checks reflexivity, antisymmetry, and
// transitivity on random value triples.
func TestCompareTotalOrderProperties(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := randValue(rng, 0), randValue(rng, 0), randValue(rng, 0)
		if Compare(a, a) != 0 {
			return false
		}
		if Compare(a, b) != -Compare(b, a) {
			return false
		}
		// Transitivity: a<=b and b<=c implies a<=c.
		if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIsolation(t *testing.T) {
	inner := map[string]Value{"x": Int(1)}
	orig := Map(map[string]Value{"m": Map(inner), "a": Array(Int(1), Int(2)), "b": Bytes([]byte{1})})
	c := orig.Clone()
	inner["x"] = Int(99)
	orig.MapVal()["a"].ArrayVal()[0] = Int(99)
	orig.MapVal()["b"].BytesVal()[0] = 99
	if got := c.MapVal()["m"].MapVal()["x"]; got.IntVal() != 1 {
		t.Errorf("clone map leaked: %v", got)
	}
	if got := c.MapVal()["a"].ArrayVal()[0]; got.IntVal() != 1 {
		t.Errorf("clone array leaked: %v", got)
	}
	if got := c.MapVal()["b"].BytesVal()[0]; got != 1 {
		t.Errorf("clone bytes leaked: %v", got)
	}
}

func TestValueString(t *testing.T) {
	v := Map(map[string]Value{"n": Int(3), "s": String("hi")})
	if got := v.String(); got != `{n: 3, s: "hi"}` {
		t.Errorf("String = %s", got)
	}
	if got := Array(Null(), Bool(true)).String(); got != "[null, true]" {
		t.Errorf("String = %s", got)
	}
}

func TestEstimateSize(t *testing.T) {
	if Null().EstimateSize() != 1 {
		t.Error("null size")
	}
	if String("abcd").EstimateSize() != 5 {
		t.Error("string size")
	}
	v := Map(map[string]Value{"k": Bytes(make([]byte, 100))})
	if got := v.EstimateSize(); got != 102 {
		t.Errorf("map size = %d, want 102", got)
	}
}
