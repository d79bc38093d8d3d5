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
	"slices"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates Firestore value types. The declaration order defines
// the cross-type sort order: values of a smaller Kind sort before values
// of a larger Kind, matching Firestore's documented ordering
// (Null < Bool < Number < Timestamp < String < Bytes < Reference <
// GeoPoint < Array < Map).
type Kind uint8

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
	if int(k) >= len(kindNames) {
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
// It is three words of payload behind a kind byte, 48 bytes in all, so
// that map and array elements hold it inline and passing it by value is
// cheap (DESIGN.md "Read path: who owns the bytes"): num carries a bool,
// an int64, a double's bits, a timestamp's microseconds since the Unix
// epoch or a geopoint's latitude bits; s a string, a reference or a
// bytes value's payload, which is immutable like them; ref a []Value,
// map[string]Value, or a geopoint's longitude. Integers
// and doubles are both KindNumber but retain their representation
// (isInt) so round-trips are lossless while comparisons are numeric
// across the two.
type Value struct {
	kind  Kind
	isInt bool
	num   uint64
	s     string
	ref   any
}

// Constructors.

// Null returns the null value.
func Null() Value { return Value{} }

// Bool returns a boolean value.
func Bool(v bool) Value {
	if v {
		return Value{kind: KindBool, num: 1}
	}
	return Value{kind: KindBool}
}

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindNumber, isInt: true, num: uint64(v)} }

// Double returns a double value.
func Double(v float64) Value { return Value{kind: KindNumber, num: math.Float64bits(v)} }

// maxTimestampSec is the largest count of seconds either side of 1970
// whose microseconds fit an int64 (some 292 000 years).
const maxTimestampSec = math.MaxInt64 / 1_000_000

// Timestamp returns a timestamp value, truncated to microseconds as the
// production service does (toward the past, also before 1970). A time
// further from 1970 than maxTimestampSec saturates at that second, never
// wraps; a write refuses one long before (CheckFieldNames).
func Timestamp(t time.Time) Value {
	us := t.UnixMicro()
	if sec := t.Unix(); sec >= maxTimestampSec {
		us = maxTimestampSec * 1_000_000
	} else if sec < -maxTimestampSec {
		us = -maxTimestampSec * 1_000_000
	}
	return Value{kind: KindTimestamp, num: uint64(us)}
}

// String returns a string value.
func String(v string) Value { return Value{kind: KindString, s: v} }

// Bytes returns a bytes value holding a copy of v: the caller keeps v.
func Bytes(v []byte) Value { return Value{kind: KindBytes, s: string(v)} }

// Reference returns a document-reference value naming another document.
func Reference(name string) Value { return Value{kind: KindReference, s: name} }

// Geo returns a geopoint value.
func Geo(lat, lng float64) Value {
	return Value{kind: KindGeoPoint, num: math.Float64bits(lat), ref: lng}
}

// Array returns an array value; the slice is retained.
func Array(vs ...Value) Value { return Value{kind: KindArray, ref: vs} }

// Map returns a map value; the map is retained.
func Map(m map[string]Value) Value {
	if m == nil {
		m = map[string]Value{}
	}
	return Value{kind: KindMap, ref: m}
}

// Accessors. Each returns the zero value of its type when v is of
// another kind.

// Kind returns the value's type.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is the null value.
func (v Value) IsNull() bool { return v.kind == KindNull }

// IsInt reports whether v is a number stored as an integer.
func (v Value) IsInt() bool { return v.isInt }

// BoolVal returns the boolean payload.
func (v Value) BoolVal() bool { return v.kind == KindBool && v.num != 0 }

// IntVal returns the integer payload; for a double it truncates.
func (v Value) IntVal() int64 {
	if v.isInt {
		return int64(v.num)
	}
	return int64(v.DoubleVal())
}

// DoubleVal returns the numeric payload as float64.
func (v Value) DoubleVal() float64 {
	switch {
	case v.isInt:
		return float64(int64(v.num))
	case v.kind == KindNumber:
		return math.Float64frombits(v.num)
	}
	return 0
}

// StringVal returns the string payload.
func (v Value) StringVal() string {
	if v.kind == KindBytes {
		return ""
	}
	return v.s
}

// BytesVal returns a copy of the bytes payload, the caller's to keep and
// modify.
func (v Value) BytesVal() []byte { return []byte(v.BytesString()) }

// BytesString returns the bytes payload as a string, without a copy.
func (v Value) BytesString() string {
	if v.kind != KindBytes {
		return ""
	}
	return v.s
}

// TimeVal returns the timestamp payload, in UTC.
func (v Value) TimeVal() time.Time {
	if v.kind != KindTimestamp {
		return time.Time{}
	}
	return time.UnixMicro(int64(v.num)).UTC()
}

// RefVal returns the reference payload.
func (v Value) RefVal() string { return v.StringVal() }

// GeoVal returns the geopoint payload.
func (v Value) GeoVal() GeoPoint {
	lng, ok := v.ref.(float64)
	if !ok {
		return GeoPoint{}
	}
	return GeoPoint{Lat: math.Float64frombits(v.num), Lng: lng}
}

// ArrayVal returns the array payload.
func (v Value) ArrayVal() []Value {
	arr, _ := v.ref.([]Value)
	return arr
}

// MapVal returns the map payload.
func (v Value) MapVal() map[string]Value {
	m, _ := v.ref.(map[string]Value)
	return m
}

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
		return cmpInt64(int64(a.num), int64(b.num))
	case KindNumber:
		return compareNumbers(a, b)
	case KindTimestamp:
		return cmpInt64(int64(a.num), int64(b.num))
	case KindString, KindReference, KindBytes:
		return strings.Compare(a.s, b.s)
	case KindGeoPoint:
		ag, bg := a.GeoVal(), b.GeoVal()
		if c := cmpFloat(ag.Lat, bg.Lat); c != 0 {
			return c
		}
		return cmpFloat(ag.Lng, bg.Lng)
	case KindArray:
		aa, ba := a.ArrayVal(), b.ArrayVal()
		for i := 0; i < len(aa) && i < len(ba); i++ {
			if c := Compare(aa[i], ba[i]); c != 0 {
				return c
			}
		}
		return cmpInt(len(aa), len(ba))
	case KindMap:
		// Maps compare by sorted key, then value, like an association
		// list — matching Firestore semantics.
		am, bm := a.MapVal(), b.MapVal()
		ak, bk := sortedKeys(am), sortedKeys(bm)
		for i := 0; i < len(ak) && i < len(bk); i++ {
			if c := strings.Compare(ak[i], bk[i]); c != 0 {
				return c
			}
			if c := Compare(am[ak[i]], bm[bk[i]]); c != 0 {
				return c
			}
		}
		return cmpInt(len(ak), len(bk))
	}
	return 0
}

// compareNumbers treats integer and double representations of the same
// number as equal (Firestore: 3 == 3.0); -0.0 equals 0.
func compareNumbers(a, b Value) int {
	switch {
	case a.isInt && b.isInt:
		return cmpInt64(int64(a.num), int64(b.num))
	case a.isInt:
		return -cmpFloatInt(b.DoubleVal(), int64(a.num))
	case b.isInt:
		return cmpFloatInt(a.DoubleVal(), int64(b.num))
	}
	return cmpFloat(a.DoubleVal(), b.DoubleVal())
}

// cmpFloatInt compares a float64 against an int64 exactly, without
// rounding the integer through float64.
func cmpFloatInt(f float64, i int64) int {
	switch {
	case f != f: // NaN sorts before every number
		return -1
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

func sortedKeys(m map[string]Value) []string {
	return appendSortedKeys(make([]string, 0, len(m)), m)
}

// appendSortedKeys appends m's keys to ks in order.
func appendSortedKeys(ks []string, m map[string]Value) []string {
	at := len(ks)
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks[at:])
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
		return strconv.FormatBool(v.BoolVal())
	case KindNumber:
		if v.isInt {
			return strconv.FormatInt(v.IntVal(), 10)
		}
		return strconv.FormatFloat(v.DoubleVal(), 'g', -1, 64)
	case KindTimestamp:
		return v.TimeVal().Format(time.RFC3339Nano)
	case KindString:
		return strconv.Quote(v.s)
	case KindBytes:
		return fmt.Sprintf("bytes(%x)", v.s)
	case KindReference:
		return "ref(" + v.s + ")"
	case KindGeoPoint:
		return fmt.Sprintf("geo(%g,%g)", v.GeoVal().Lat, v.GeoVal().Lng)
	case KindArray:
		parts := make([]string, len(v.ArrayVal()))
		for i, e := range v.ArrayVal() {
			parts[i] = e.String()
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case KindMap:
		m := v.MapVal()
		parts := make([]string, 0, len(m))
		for _, k := range sortedKeys(m) {
			parts = append(parts, k+": "+m[k].String())
		}
		return "{" + strings.Join(parts, ", ") + "}"
	}
	return "invalid"
}

// Clone returns a deep copy of v; mutating the copy's arrays or maps
// does not affect v. Strings and bytes payloads are immutable and shared.
func (v Value) Clone() Value {
	switch v.kind {
	case KindArray:
		arr := make([]Value, len(v.ArrayVal()))
		for i, e := range v.ArrayVal() {
			arr[i] = e.Clone()
		}
		v.ref = arr
	case KindMap:
		m := make(map[string]Value, len(v.MapVal()))
		for k, e := range v.MapVal() {
			m[k] = e.Clone()
		}
		v.ref = m
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
		return len(v.s)
	case KindArray:
		n := 0
		for _, e := range v.ArrayVal() {
			n += e.EstimateSize()
		}
		return n
	case KindMap:
		n := 0
		for k, e := range v.MapVal() {
			n += len(k) + 1 + e.EstimateSize()
		}
		return n
	}
	return 0
}
