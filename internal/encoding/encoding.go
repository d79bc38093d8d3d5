// Package encoding implements order-preserving byte-string encoding of
// Firestore values, value tuples, and document names. The paper stores
// each index entry as a Spanner row whose key is an (index-id, values,
// name) tuple where "the encoding of the n-tuple of values ... preserves
// the index's desired sort order" (§IV-D1), so that an in-order scan of
// IndexEntries rows IS an in-order scan of the logical Firestore index.
//
// The invariants, verified by property tests:
//
//	bytes.Compare(EncodeValue(a), EncodeValue(b)) == doc.Compare(a, b)
//	bytes.Compare(Invert(EncodeValue(a)), Invert(EncodeValue(b))) == -doc.Compare(a, b)
//
// Encodings are prefix-free and self-delimiting, so tuple encodings
// concatenate component encodings directly and ascending/descending
// components mix freely within one key.
package encoding

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"

	"firestore/internal/doc"
	"firestore/internal/status"
)

// Type tag bytes. The terminator must sort below every tag so that a
// shorter composite (array/map/name prefix) sorts first.
const (
	terminator   = 0x00
	tagNull      = 0x01
	tagBool      = 0x02
	tagNumber    = 0x03
	tagTimestamp = 0x04
	tagString    = 0x05
	tagBytes     = 0x06
	tagReference = 0x07
	tagGeoPoint  = 0x08
	tagArray     = 0x09
	tagMap       = 0x0a
)

// Escape bytes inside string/bytes payloads: 0x00 is escaped as
// {0x00,0xff} and the payload is terminated by {0x00,0x01}, so a proper
// prefix (terminator) sorts before a longer string (escape).
const (
	escape     = 0x00
	escapedFF  = 0xff
	escapedEnd = 0x01
)

// EncodeValue appends the ascending order-preserving encoding of v to dst
// and returns the extended slice.
func EncodeValue(dst []byte, v doc.Value) []byte {
	switch v.Kind() {
	case doc.KindNull:
		return append(dst, tagNull)
	case doc.KindBool:
		if v.BoolVal() {
			return append(dst, tagBool, 1)
		}
		return append(dst, tagBool, 0)
	case doc.KindNumber:
		return encodeNumber(dst, v)
	case doc.KindTimestamp:
		dst = append(dst, tagTimestamp)
		return appendSortableInt64(dst, v.TimeVal().UnixMicro())
	case doc.KindString:
		return appendTagged(dst, tagString, v.StringVal())
	case doc.KindBytes:
		return appendTagged(dst, tagBytes, v.BytesString())
	case doc.KindReference:
		return appendTagged(dst, tagReference, v.RefVal())
	case doc.KindGeoPoint:
		dst = append(dst, tagGeoPoint)
		dst = appendSortableFloat(dst, v.GeoVal().Lat)
		return appendSortableFloat(dst, v.GeoVal().Lng)
	case doc.KindArray:
		dst = append(dst, tagArray)
		for _, e := range v.ArrayVal() {
			dst = EncodeValue(dst, e)
		}
		return append(dst, terminator)
	case doc.KindMap:
		// Each entry is introduced by a 0x01 marker: map keys may begin
		// with 0x00, which would otherwise make a shorter map's
		// terminator a proper prefix of a longer map's first entry and
		// break prefix-freedom (and hence descending order).
		dst = append(dst, tagMap)
		m := v.MapVal()
		for _, k := range sortedKeys(m) {
			dst = appendTagged(dst, 0x01, k)
			dst = EncodeValue(dst, m[k])
		}
		return append(dst, terminator)
	}
	panic(fmt.Sprintf("encoding: unknown kind %v", v.Kind()))
}

// EncodeValueDesc appends the descending encoding: byte-wise inverted
// ascending encoding, so bytes.Compare order is exactly reversed.
func EncodeValueDesc(dst []byte, v doc.Value) []byte {
	start := len(dst)
	dst = EncodeValue(dst, v)
	InvertInPlace(dst[start:])
	return dst
}

// Invert returns a copy of b with every byte complemented.
func Invert(b []byte) []byte {
	out := slices.Clone(b)
	InvertInPlace(out)
	return out
}

// InvertInPlace complements every byte of b, turning an ascending
// encoding into the descending one (and back).
func InvertInPlace(b []byte) {
	for ; len(b) >= 8; b = b[8:] {
		binary.LittleEndian.PutUint64(b, ^binary.LittleEndian.Uint64(b))
	}
	for i := range b {
		b[i] = ^b[i]
	}
}

func sortedKeys(m map[string]doc.Value) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	// Insertion sort: maps in index entries are small.
	for i := 1; i < len(ks); i++ {
		for j := i; j > 0 && ks[j] < ks[j-1]; j-- {
			ks[j], ks[j-1] = ks[j-1], ks[j]
		}
	}
	return ks
}

// encodeNumber encodes int64/double values so that byte order equals
// numeric order, with NaN first, and numerically equal values (e.g. 3 and
// 3.0) encoding identically. Layout: tag, class byte (0 = NaN, 1 =
// number), sortable float64 of the rounded value, then a sortable residual
// (exact integer minus rounded float) that distinguishes int64 values not
// exactly representable in float64.
func encodeNumber(dst []byte, v doc.Value) []byte {
	dst = append(dst, tagNumber)
	if !v.IsInt() && math.IsNaN(v.DoubleVal()) {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	if v.IsInt() {
		i := v.IntVal()
		f := float64(i)
		dst = appendSortableFloat(dst, f)
		return appendSortableInt64(dst, intResidual(i, f))
	}
	dst = appendSortableFloat(dst, v.DoubleVal())
	return appendSortableInt64(dst, 0)
}

// intResidual returns i minus the exact value of f (where f = float64(i),
// so the residual is a small integer), computed without overflow even when
// f rounds to 2^63.
func intResidual(i int64, f float64) int64 {
	const two63 = 9223372036854775808.0 // 2^63
	if f >= two63 {
		// f is exactly 2^63 (i <= MaxInt64 rounds no higher).
		return int64(uint64(i) - (uint64(1) << 63))
	}
	// f is integral and in int64 range here: |i| >= 2^53 implies f
	// integral; |i| < 2^53 implies f == i exactly.
	return i - int64(f)
}

// appendSortableFloat appends 8 bytes whose unsigned byte order equals
// doc.Compare's order of floats, and which are the same bytes whenever
// doc.Compare says equal (the field-wise index diff skips equal values
// unencoded): every NaN is the eight zero bytes below -Inf, -0.0 is +0.0.
func appendSortableFloat(dst []byte, f float64) []byte {
	if f != f {
		return appendUint64(dst, 0)
	}
	if f == 0 {
		f = 0 // -0.0 to +0.0
	}
	bits := math.Float64bits(f)
	if bits&(1<<63) != 0 {
		bits = ^bits // negative: flip everything
	} else {
		bits |= 1 << 63 // positive: set sign bit
	}
	return appendUint64(dst, bits)
}

// appendSortableInt64 appends 8 bytes whose unsigned byte order equals the
// signed order of i.
func appendSortableInt64(dst []byte, i int64) []byte {
	return appendUint64(dst, uint64(i)^(1<<63))
}

func appendUint64(dst []byte, u uint64) []byte {
	return append(dst,
		byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
		byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
}

// escapedLen is the length AppendEscaped adds for payload: one extra
// byte per 0x00 and the two-byte terminator.
func escapedLen[T string | []byte](payload T) int {
	n := len(payload) + 2
	for i := 0; i < len(payload); i++ {
		if payload[i] == escape {
			n++
		}
	}
	return n
}

// AppendEscaped appends payload with 0x00 bytes escaped and an
// order-preserving terminator, the primitive underlying string, name, and
// segment encodings. The result is prefix-free against other
// AppendEscaped outputs. dst grows at most once, to the exact size.
func AppendEscaped[T string | []byte](dst []byte, payload T) []byte {
	if len(payload) >= longPayload {
		return copyEscapedLong(slices.Grow(dst, 2+len(payload)+countEscapes(payload)), payload)
	}
	return copyEscaped(slices.Grow(dst, escapedLen(payload)), payload)
}

// appendTagged is AppendEscaped behind one tag byte, sized together so
// an encoding into a nil dst is one allocation.
func appendTagged[T string | []byte](dst []byte, tag byte, payload T) []byte {
	if len(payload) >= longPayload {
		dst = slices.Grow(dst, 3+len(payload)+countEscapes(payload))
		return copyEscapedLong(append(dst, tag), payload)
	}
	dst = slices.Grow(dst, 1+escapedLen(payload))
	return copyEscaped(append(dst, tag), payload)
}

func copyEscaped[T string | []byte](dst []byte, payload T) []byte {
	start := 0
	for i := 0; i < len(payload); i++ {
		if payload[i] == escape {
			dst = append(append(dst, payload[start:i]...), escape, escapedFF)
			start = i + 1
		}
	}
	return append(append(dst, payload[start:]...), escape, escapedEnd)
}

// longPayload is the length from which a value's payload is scanned for
// escapes by the vectorised bytes/strings routines rather than by the
// inlined byte loops of escapedLen and copyEscaped, whose call they
// would not repay on a shorter one. Name segments keep the loops.
const longPayload = 32

// copyEscapedLong is copyEscaped by indexEscape.
func copyEscapedLong[T string | []byte](dst []byte, payload T) []byte {
	for i := indexEscape(payload); i >= 0; i = indexEscape(payload) {
		dst = append(append(dst, payload[:i]...), escape, escapedFF)
		payload = payload[i+1:]
	}
	return append(append(dst, payload...), escape, escapedEnd)
}

// countEscapes and indexEscape are bytes.Count and bytes.IndexByte of
// the escape byte, or their strings counterparts for a string.
func countEscapes[T string | []byte](payload T) int {
	if s, ok := any(payload).(string); ok {
		return strings.Count(s, "\x00")
	}
	return bytes.Count(any(payload).([]byte), []byte{escape})
}

func indexEscape[T string | []byte](payload T) int {
	if s, ok := any(payload).(string); ok {
		return strings.IndexByte(s, escape)
	}
	return bytes.IndexByte(any(payload).([]byte), escape)
}

// KindTag returns the type-tag byte that begins the ascending encoding of
// every value of kind k. Query planning uses it to build per-type range
// bounds (inequality predicates only match values of the same type).
func KindTag(k doc.Kind) byte {
	switch k {
	case doc.KindNull:
		return tagNull
	case doc.KindBool:
		return tagBool
	case doc.KindNumber:
		return tagNumber
	case doc.KindTimestamp:
		return tagTimestamp
	case doc.KindString:
		return tagString
	case doc.KindBytes:
		return tagBytes
	case doc.KindReference:
		return tagReference
	case doc.KindGeoPoint:
		return tagGeoPoint
	case doc.KindArray:
		return tagArray
	default:
		return tagMap
	}
}

// ErrCorrupt reports an undecodable encoding.
var ErrCorrupt = status.New(status.Internal, "encoding", "corrupt")

// ReadEscaped decodes an AppendEscaped payload from the front of b,
// returning the payload and the number of input bytes consumed: the
// payload's length plus two exactly when it had no escapes, in which
// case it is a sub-slice of b, not a copy. A first pass finds the
// terminator and counts the escapes, so a payload that has some is
// allocated once, at its size.
func ReadEscaped(b []byte) ([]byte, int, error) {
	escapes := 0
	for i := 0; i < len(b); i++ {
		if b[i] != escape {
			continue
		}
		if i+1 >= len(b) {
			return nil, 0, fmt.Errorf("%w: dangling escape", ErrCorrupt)
		}
		switch b[i+1] {
		case escapedFF:
			escapes++
			i++
		case escapedEnd:
			if escapes == 0 {
				return b[:i:i], i + 2, nil
			}
			out := make([]byte, 0, i-escapes)
			for j := 0; j < i; j++ {
				out = append(out, b[j])
				if b[j] == escape {
					j++ // its escapedFF
				}
			}
			return out, i + 2, nil
		default:
			return nil, 0, fmt.Errorf("%w: bad escape 0x%02x", ErrCorrupt, b[i+1])
		}
	}
	return nil, 0, fmt.Errorf("%w: unterminated payload", ErrCorrupt)
}

// EncodeName appends the order-preserving encoding of a document name:
// each segment escaped-and-terminated, so byte order equals segment-wise
// name order and no encoded name is a prefix of another.
func EncodeName(dst []byte, n doc.Name) []byte {
	return append(appendSegments(slices.Grow(dst, NameLen(n)), n.String()), terminator)
}

// NameLen returns len(EncodeName(nil, n)), so callers can size a row key
// before encoding the name into it.
func NameLen(n doc.Name) int {
	// Each segment's '/' becomes its two-byte terminator; a NUL, two bytes.
	text := n.String()
	return 1 + len(text) + strings.Count(text, "/") + strings.Count(text, "\x00")
}

// appendSegments appends each segment of a name's or a collection's text
// escaped-and-terminated, walking the text, into a dst sized for them.
func appendSegments(dst []byte, text string) []byte {
	for text != "" {
		seg, _, _ := strings.Cut(text[1:], "/")
		dst = copyEscaped(dst, seg)
		text = text[1+len(seg):]
	}
	return dst
}

// DecodeName decodes a name encoded by EncodeName, returning the name and
// the number of bytes consumed.
func DecodeName(b []byte) (doc.Name, int, error) {
	var text []byte
	segs, i := 0, 0
	for {
		if i >= len(b) {
			return doc.Name{}, 0, fmt.Errorf("%w: unterminated name", ErrCorrupt)
		}
		if b[i] == terminator {
			i++
			break
		}
		seg, n, err := ReadEscaped(b[i:])
		if err != nil {
			return doc.Name{}, 0, err
		}
		text = append(append(text, '/'), seg...)
		segs++
		i += n
	}
	if segs == 0 || segs%2 != 0 {
		return doc.Name{}, 0, fmt.Errorf("%w: %d name segments", ErrCorrupt, segs)
	}
	name, err := doc.ParseName(string(text))
	if err != nil {
		return doc.Name{}, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return name, i, nil
}

// EncodeCollection appends the encoding of a collection path WITHOUT the
// final terminator, yielding the common prefix of every document name
// directly inside that collection... plus names in nested sub-collections,
// which callers exclude via segment count or by the extra terminator
// structure. Used to compute collection scan ranges.
func EncodeCollection(dst []byte, c doc.CollectionPath) []byte {
	text := c.String()
	return appendSegments(slices.Grow(dst, len(text)+strings.Count(text, "/")), text)
}

// PrefixSuccessor returns the smallest byte string greater than every
// string having prefix p, or nil if p is all 0xff (no upper bound).
// The result shares no memory with p.
func PrefixSuccessor(p []byte) []byte {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] != 0xff {
			out := make([]byte, i+1)
			copy(out, p[:i+1])
			out[i]++
			return out
		}
	}
	return nil
}
