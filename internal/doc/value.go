// Package doc implements the Firestore document model (§III-A): schemaless
// documents identified by hierarchical names, holding fields whose values
// are drawn from a rich set of primitive and complex types. Values have a
// total order across types — Firestore allows "sorting on any value
// including arrays and maps and sorting across fields with inconsistent
// types" (§IV-D1) — which this package defines and which
// internal/encoding preserves byte-wise.
package doc

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates Firestore value types. The declaration order defines
// the cross-type sort order: values of a smaller Kind sort before values
// of a larger Kind, matching Firestore's documented ordering
// (Null < Bool < Number < Timestamp < String < Bytes < Reference <
// GeoPoint < Array < Map).
type Kind int

const (
	KindNull Kind = iota
	KindBool
	KindNumber // int64 and float64 compare numerically with each other
	KindTimestamp
	KindString
	KindBytes
	KindReference
	KindGeoPoint
	KindArray
	KindMap
)

var kindNames = [...]string{
	"null", "bool", "number", "timestamp", "string", "bytes",
	"reference", "geopoint", "array", "map",
}

func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return "invalid"
	}
	return kindNames[k]
}

// GeoPoint is a latitude/longitude pair.
type GeoPoint struct {
	Lat, Lng float64
}

// Value is a single Firestore value. The zero Value is null.
//
// Exactly one representation is active, selected by Kind(): integers and
// doubles are both KindNumber but retain their representation (isInt) so
// round-trips are lossless while comparisons are numeric across the two.
type Value struct {
	kind  Kind
	isInt bool
	b     bool
	i     int64
	f     float64
	s     string // string and reference payloads
	bs    []byte
	t     time.Time
	g     GeoPoint
	arr   []Value
	m     map[string]Value
}

// Constructors.

// Null returns the null value.
func Null() Value { return Value{} }

// Bool returns a boolean value.
func Bool(v bool) Value { return Value{kind: KindBool, b: v} }

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindNumber, isInt: true, i: v} }

// Double returns a double value.
func Double(v float64) Value { return Value{kind: KindNumber, f: v} }

// Timestamp returns a timestamp value, truncated to microseconds as the
// production service does.
func Timestamp(t time.Time) Value {
	return Value{kind: KindTimestamp, t: t.UTC().Truncate(time.Microsecond)}
}

// String returns a string value.
func String(v string) Value { return Value{kind: KindString, s: v} }

// Bytes returns a bytes value; the slice is retained.
func Bytes(v []byte) Value { return Value{kind: KindBytes, bs: v} }

// Reference returns a document-reference value naming another document.
func Reference(name string) Value { return Value{kind: KindReference, s: name} }

// Geo returns a geopoint value.
func Geo(lat, lng float64) Value { return Value{kind: KindGeoPoint, g: GeoPoint{lat, lng}} }

// Array returns an array value; the slice is retained.
func Array(vs ...Value) Value { return Value{kind: KindArray, arr: vs} }

// Map returns a map value; the map is retained.
func Map(m map[string]Value) Value {
	if m == nil {
		m = map[string]Value{}
	}
	return Value{kind: KindMap, m: m}
}

// Accessors.

// Kind returns the value's type.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is the null value.
func (v Value) IsNull() bool { return v.kind == KindNull }

// IsInt reports whether v is a number stored as an integer.
func (v Value) IsInt() bool { return v.kind == KindNumber && v.isInt }

// BoolVal returns the boolean payload (false if not a bool).
func (v Value) BoolVal() bool { return v.b }

// IntVal returns the integer payload; for a double it truncates.
func (v Value) IntVal() int64 {
	if v.isInt {
		return v.i
	}
	return int64(v.f)
}

// DoubleVal returns the numeric payload as float64.
func (v Value) DoubleVal() float64 {
	if v.isInt {
		return float64(v.i)
	}
	return v.f
}

// StringVal returns the string payload ("" if not a string).
func (v Value) StringVal() string { return v.s }

// BytesVal returns the bytes payload (nil if not bytes).
func (v Value) BytesVal() []byte { return v.bs }

// TimeVal returns the timestamp payload.
func (v Value) TimeVal() time.Time { return v.t }

// RefVal returns the reference payload ("" if not a reference).
func (v Value) RefVal() string { return v.s }

// GeoVal returns the geopoint payload.
func (v Value) GeoVal() GeoPoint { return v.g }

// ArrayVal returns the array payload (nil if not an array).
func (v Value) ArrayVal() []Value { return v.arr }

// MapVal returns the map payload (nil if not a map).
func (v Value) MapVal() map[string]Value { return v.m }

// Compare returns -1, 0, or +1 ordering a before, equal to, or after b in
// Firestore's total order. Within KindNumber, NaN sorts before all other
// numbers, and integers and doubles compare by numeric value with the
// integer representation breaking exact ties so that the order is total
// and antisymmetric even for int64 values not exactly representable as
// float64.
func Compare(a, b Value) int {
	if a.kind != b.kind {
		return cmpInt(int(a.kind), int(b.kind))
	}
	switch a.kind {
	case KindNull:
		return 0
	case KindBool:
		return cmpBool(a.b, b.b)
	case KindNumber:
		return compareNumbers(a, b)
	case KindTimestamp:
		return a.t.Compare(b.t)
	case KindString, KindReference:
		return strings.Compare(a.s, b.s)
	case KindBytes:
		return cmpBytes(a.bs, b.bs)
	case KindGeoPoint:
		if c := cmpFloat(a.g.Lat, b.g.Lat); c != 0 {
			return c
		}
		return cmpFloat(a.g.Lng, b.g.Lng)
	case KindArray:
		n := len(a.arr)
		if len(b.arr) < n {
			n = len(b.arr)
		}
		for i := 0; i < n; i++ {
			if c := Compare(a.arr[i], b.arr[i]); c != 0 {
				return c
			}
		}
		return cmpInt(len(a.arr), len(b.arr))
	case KindMap:
		// Maps compare by sorted key, then value, like an association
		// list — matching Firestore semantics.
		ak, bk := sortedKeys(a.m), sortedKeys(b.m)
		n := len(ak)
		if len(bk) < n {
			n = len(bk)
		}
		for i := 0; i < n; i++ {
			if c := strings.Compare(ak[i], bk[i]); c != 0 {
				return c
			}
			if c := Compare(a.m[ak[i]], b.m[bk[i]]); c != 0 {
				return c
			}
		}
		return cmpInt(len(ak), len(bk))
	}
	return 0
}

func compareNumbers(a, b Value) int {
	an, bn := math.IsNaN(a.numNaN()), math.IsNaN(b.numNaN())
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	var c int
	switch {
	case a.isInt && b.isInt:
		c = cmpInt64(a.i, b.i)
	case !a.isInt && !b.isInt:
		c = cmpFloat(a.f, b.f)
	case a.isInt:
		c = -cmpFloatInt(b.f, a.i)
	default:
		c = cmpFloatInt(a.f, b.i)
	}
	if c != 0 {
		return c
	}
	// Numerically equal. Treat integer and double representations of the
	// same number as equal (Firestore: 3 == 3.0). -0.0 equals 0.
	return 0
}

func (v Value) numNaN() float64 {
	if v.isInt {
		return 0
	}
	return v.f
}

// cmpFloatInt compares a float64 against an int64 exactly, without
// rounding the integer through float64.
func cmpFloatInt(f float64, i int64) int {
	switch {
	case math.IsInf(f, 1):
		return 1
	case math.IsInf(f, -1):
		return -1
	}
	// Fast path: integers up to 2^53 are exact in float64.
	const exact = 1 << 53
	if i < exact && i > -exact {
		return cmpFloat(f, float64(i))
	}
	if f >= 9.223372036854776e18 { // > MaxInt64
		return 1
	}
	if f < -9.223372036854776e18 {
		return -1
	}
	fi := int64(f)
	if fi != i {
		return cmpInt64(fi, i)
	}
	// Same integer part: compare fractional remainder.
	frac := f - float64(fi)
	return cmpFloat(frac, 0)
}

func cmpInt(a, b int) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// cmpFloat is a total order: NaN sorts first and equals itself (a
// geopoint's coordinates are compared raw), -0.0 equals 0. Values it
// calls equal encode identically (encoding.appendSortableFloat).
func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	}
	return cmpBool(b != b, a != a)
}

func cmpBool(a, b bool) int {
	switch {
	case !a && b:
		return -1
	case a && !b:
		return 1
	}
	return 0
}

func cmpBytes(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return cmpInt(len(a), len(b))
}

func sortedKeys(m map[string]Value) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// Equal reports whether a and b are equal under Compare.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// String renders the value for debugging and error messages.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "null"
	case KindBool:
		return strconv.FormatBool(v.b)
	case KindNumber:
		if v.isInt {
			return strconv.FormatInt(v.i, 10)
		}
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindTimestamp:
		return v.t.Format(time.RFC3339Nano)
	case KindString:
		return strconv.Quote(v.s)
	case KindBytes:
		return fmt.Sprintf("bytes(%x)", v.bs)
	case KindReference:
		return "ref(" + v.s + ")"
	case KindGeoPoint:
		return fmt.Sprintf("geo(%g,%g)", v.g.Lat, v.g.Lng)
	case KindArray:
		parts := make([]string, len(v.arr))
		for i, e := range v.arr {
			parts[i] = e.String()
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case KindMap:
		parts := make([]string, 0, len(v.m))
		for _, k := range sortedKeys(v.m) {
			parts = append(parts, k+": "+v.m[k].String())
		}
		return "{" + strings.Join(parts, ", ") + "}"
	}
	return "invalid"
}

// Clone returns a deep copy of v; mutating the copy's arrays, maps, or
// byte slices does not affect v.
func (v Value) Clone() Value {
	switch v.kind {
	case KindBytes:
		v.bs = append([]byte(nil), v.bs...)
	case KindArray:
		arr := make([]Value, len(v.arr))
		for i, e := range v.arr {
			arr[i] = e.Clone()
		}
		v.arr = arr
	case KindMap:
		m := make(map[string]Value, len(v.m))
		for k, e := range v.m {
			m[k] = e.Clone()
		}
		v.m = m
	}
	return v
}

// EstimateSize returns the approximate stored size of the value in bytes,
// used to enforce the 1 MiB document limit.
func (v Value) EstimateSize() int {
	switch v.kind {
	case KindNull:
		return 1
	case KindBool:
		return 1
	case KindNumber, KindTimestamp, KindGeoPoint:
		return 8
	case KindString, KindReference:
		return len(v.s) + 1
	case KindBytes:
		return len(v.bs)
	case KindArray:
		n := 0
		for _, e := range v.arr {
			n += e.EstimateSize()
		}
		return n
	case KindMap:
		n := 0
		for k, e := range v.m {
			n += len(k) + 1 + e.EstimateSize()
		}
		return n
	}
	return 0
}
