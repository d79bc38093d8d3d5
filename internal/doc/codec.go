package doc

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"time"

	"firestore/internal/status"
	"firestore/internal/truetime"
)

// This file implements the binary wire encoding of documents. The paper
// stores each document's key-value pairs "encoded in a protocol buffer
// stored in a single column" of the Spanner Entities table (§IV-D1); this
// is the stdlib-only stand-in: a compact tag-length-value encoding that
// round-trips every value type losslessly. It is NOT order-preserving;
// order-preserving encoding for index keys lives in internal/encoding.

// ErrCorrupt reports an undecodable document blob.
var ErrCorrupt = status.New(status.Internal, "doc", "corrupt encoding")

// ErrChecksum reports a blob whose end-to-end checksum does not match
// its contents — in-memory or in-flight corruption (§VI: "mass-produced
// machines themselves are unreliable and may corrupt in-memory data. We
// are actively addressing these issues through the addition of
// end-to-end checksums").
var ErrChecksum = status.New(status.Internal, "doc", "checksum mismatch")

// Marshal encodes the document (name, timestamps, fields) to bytes,
// ending with an IEEE CRC-32 of everything before it. The checksum
// travels with the blob from the writing Backend through Spanner to every
// reader, so corruption anywhere in between is detected at decode time.
func Marshal(d *Document) []byte {
	names := d.FieldNames()
	// Sized up front from the document's own estimate plus the framing
	// (lengths, kind bytes, timestamps, checksum), so a typical document
	// is one allocation; an underestimate only costs a regrowth.
	b := make([]byte, 0, d.Size()+8*len(names)+32)
	b = binary.AppendUvarint(b, uint64(d.Name.textLen()))
	for _, seg := range d.Name.segs {
		b = append(append(b, '/'), seg...)
	}
	b = binary.AppendVarint(b, int64(d.CreateTime))
	b = binary.AppendVarint(b, int64(d.UpdateTime))
	b = binary.AppendUvarint(b, uint64(len(d.Fields)))
	for _, k := range names {
		b = appendString(b, k)
		b = appendValue(b, d.Fields[k])
	}
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// Unmarshal decodes a document encoded by Marshal, verifying the
// end-to-end checksum first.
func Unmarshal(data []byte) (*Document, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("%w: %d bytes", ErrCorrupt, len(data))
	}
	body, sum := data[:len(data)-4], binary.BigEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return nil, fmt.Errorf("%w: crc32 %08x, stored %08x", ErrChecksum, got, sum)
	}
	r := &reader{buf: body}
	nameStr := r.string()
	create := r.varint()
	update := r.varint()
	n := r.uvarint()
	if r.err != nil {
		return nil, r.err
	}
	name, err := ParseName(nameStr)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	d := &Document{
		Name:       name,
		Fields:     make(map[string]Value, n),
		CreateTime: truetime.Timestamp(create),
		UpdateTime: truetime.Timestamp(update),
	}
	for i := uint64(0); i < n; i++ {
		k := r.string()
		v := r.value(0)
		if r.err != nil {
			return nil, r.err
		}
		d.Fields[k] = v
	}
	if len(r.buf) != r.pos {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(r.buf)-r.pos)
	}
	return d, nil
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendValue(b []byte, v Value) []byte {
	switch v.Kind() {
	case KindNull:
		return append(b, byte(KindNull))
	case KindBool:
		b = append(b, byte(KindBool))
		if v.BoolVal() {
			return append(b, 1)
		}
		return append(b, 0)
	case KindNumber:
		if v.IsInt() {
			b = append(b, byte(KindNumber), 0)
			return binary.AppendVarint(b, v.IntVal())
		}
		b = append(b, byte(KindNumber), 1)
		return binary.BigEndian.AppendUint64(b, math.Float64bits(v.DoubleVal()))
	case KindTimestamp:
		b = append(b, byte(KindTimestamp))
		b = binary.AppendVarint(b, v.TimeVal().Unix())
		return binary.AppendVarint(b, int64(v.TimeVal().Nanosecond()))
	case KindString:
		b = append(b, byte(KindString))
		return appendString(b, v.StringVal())
	case KindBytes:
		b = append(b, byte(KindBytes))
		b = binary.AppendUvarint(b, uint64(len(v.BytesVal())))
		return append(b, v.BytesVal()...)
	case KindReference:
		b = append(b, byte(KindReference))
		return appendString(b, v.RefVal())
	case KindGeoPoint:
		b = append(b, byte(KindGeoPoint))
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(v.GeoVal().Lat))
		return binary.BigEndian.AppendUint64(b, math.Float64bits(v.GeoVal().Lng))
	case KindArray:
		b = append(b, byte(KindArray))
		b = binary.AppendUvarint(b, uint64(len(v.ArrayVal())))
		for _, e := range v.ArrayVal() {
			b = appendValue(b, e)
		}
		return b
	case KindMap:
		b = append(b, byte(KindMap))
		m := v.MapVal()
		b = binary.AppendUvarint(b, uint64(len(m)))
		for _, k := range sortedKeys(m) {
			b = appendString(b, k)
			b = appendValue(b, m[k])
		}
		return b
	}
	panic(fmt.Sprintf("doc: unknown kind %v", v.Kind()))
}

type reader struct {
	buf []byte
	pos int
	err error
}

func (r *reader) fail(msg string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at offset %d", ErrCorrupt, msg, r.pos)
	}
}

func (r *reader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.buf) {
		r.fail("truncated")
		return 0
	}
	b := r.buf[r.pos]
	r.pos++
	return b
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.pos+n > len(r.buf) {
		r.fail("truncated")
		return nil
	}
	out := r.buf[r.pos : r.pos+n]
	r.pos += n
	return out
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.pos += n
	return v
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.pos += n
	return v
}

func (r *reader) string() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.buf)-r.pos) {
		r.fail("string length overflows buffer")
		return ""
	}
	return string(r.take(int(n)))
}

func (r *reader) uint64() uint64 {
	b := r.take(8)
	if r.err != nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// maxValueDepth bounds nesting to keep malicious inputs from exhausting
// the stack.
const maxValueDepth = 64

func (r *reader) value(depth int) Value {
	if depth > maxValueDepth {
		r.fail("value nested too deeply")
		return Null()
	}
	switch k := Kind(r.byte()); k {
	case KindNull:
		return Null()
	case KindBool:
		return Bool(r.byte() != 0)
	case KindNumber:
		if r.byte() == 0 {
			return Int(r.varint())
		}
		return Double(math.Float64frombits(r.uint64()))
	case KindTimestamp:
		sec := r.varint()
		nsec := r.varint()
		return Timestamp(time.Unix(sec, nsec).UTC())
	case KindString:
		return String(r.string())
	case KindBytes:
		n := r.uvarint()
		if r.err != nil {
			return Null()
		}
		if n > uint64(len(r.buf)-r.pos) {
			r.fail("bytes length overflows buffer")
			return Null()
		}
		return Bytes(append([]byte(nil), r.take(int(n))...))
	case KindReference:
		return Reference(r.string())
	case KindGeoPoint:
		lat := math.Float64frombits(r.uint64())
		lng := math.Float64frombits(r.uint64())
		return Geo(lat, lng)
	case KindArray:
		n := r.uvarint()
		if r.err != nil {
			return Null()
		}
		if n > uint64(len(r.buf)-r.pos) {
			r.fail("array length overflows buffer")
			return Null()
		}
		arr := make([]Value, 0, n)
		for i := uint64(0); i < n && r.err == nil; i++ {
			arr = append(arr, r.value(depth+1))
		}
		return Array(arr...)
	case KindMap:
		n := r.uvarint()
		if r.err != nil {
			return Null()
		}
		if n > uint64(len(r.buf)-r.pos) {
			r.fail("map length overflows buffer")
			return Null()
		}
		m := make(map[string]Value, n)
		for i := uint64(0); i < n && r.err == nil; i++ {
			key := r.string()
			m[key] = r.value(depth + 1)
		}
		return Map(m)
	default:
		r.fail(fmt.Sprintf("unknown value kind %d", k))
		return Null()
	}
}
