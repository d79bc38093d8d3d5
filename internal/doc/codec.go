package doc

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"strings"
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
	var scratch [16]string // the sorted field names of a typical document
	names := appendSortedKeys(scratch[:0], d.Fields)
	// Sized up front from the document's own estimate plus the framing
	// (lengths, kind bytes, timestamps, checksum), so a typical document
	// is one allocation; an underestimate only costs a regrowth.
	b := make([]byte, 0, d.Size()+8*len(names)+32)
	b = appendString(b, d.Name.text)
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
func Unmarshal(data []byte) (*Document, error) { return UnmarshalNamed(data, Name{}) }

// UnmarshalNamed is Unmarshal for a blob that was read by name: the
// blob's own name must be name, byte for byte, and is then not parsed a
// second time. A zero name parses the blob's. Either way the document's
// name is the blob's, copied into the document's arena, so a document
// never keeps its reader's name (and whatever that name is cut from)
// alive.
//
// Each payload byte is copied once (DESIGN.md "Read path: who owns the
// bytes"): a first pass over the fields validates them and adds up the
// text they hold — field names, map keys, strings, references, bytes
// payloads — and the second decodes them into one arena of exactly that
// size plus the name, which every string of the document is a substring
// of; nothing aliases data.
func UnmarshalNamed(data []byte, name Name) (*Document, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("%w: %d bytes", ErrCorrupt, len(data))
	}
	body, sum := data[:len(data)-4], binary.BigEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return nil, fmt.Errorf("%w: crc32 %08x, stored %08x", ErrChecksum, got, sum)
	}
	r := reader{buf: body}
	rawName := r.take(r.length())
	create := r.varint()
	update := r.varint()
	n := r.length()
	if n > (len(r.buf)-r.pos)/2 {
		r.fail("field count overflows buffer") // a field is at least two bytes
	}
	fields, text := r.pos, 0
	for i := 0; i < n && r.err == nil; i++ {
		_, kt := r.str(false)
		_, vt := r.value(0, false)
		text += kt + vt
	}
	if r.err == nil && r.pos != len(r.buf) {
		r.fail("trailing bytes")
	}
	if r.err != nil {
		return nil, r.err
	}
	if !name.IsZero() && string(rawName) != name.text {
		return nil, fmt.Errorf("%w: blob of %q read as %s", ErrCorrupt, rawName, name)
	}
	r.text.Grow(len(rawName) + text)
	r.text.Write(rawName)
	if name.IsZero() {
		var err error
		if name, err = ParseName(r.text.String()); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	} else {
		name = Name{text: r.text.String()}
	}
	d := &Document{
		Name:       name,
		Fields:     make(map[string]Value, n),
		CreateTime: truetime.Timestamp(create),
		UpdateTime: truetime.Timestamp(update),
	}
	for r.pos = fields; n > 0; n-- {
		k, _ := r.str(true)
		d.Fields[k], _ = r.value(0, true)
	}
	return d, r.err
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
		return appendString(b, v.BytesString())
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

// reader decodes one document body. text is the document's arena: str
// appends to it and returns the appended substring, so it must have been
// grown to its final size first (a regrowth would strand the strings
// already handed out in the old buffer: correct, but copied twice).
type reader struct {
	buf  []byte
	pos  int
	err  error
	text strings.Builder
}

func (r *reader) fail(msg string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at offset %d", ErrCorrupt, msg, r.pos)
	}
}

func (r *reader) byte() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
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

// length reads a byte length or an element count, which the bytes that
// remain must be able to hold: an element is at least one byte.
func (r *reader) length() int {
	n := r.uvarint()
	if n > uint64(len(r.buf)-r.pos) {
		r.fail("length overflows buffer")
		return 0
	}
	return int(n)
}

// str consumes one length-prefixed text and returns its length; with
// build set it is also copied into the arena and returned.
func (r *reader) str(build bool) (string, int) {
	b := r.take(r.length())
	if !build {
		return "", len(b)
	}
	at := r.text.Len()
	r.text.Write(b)
	return r.text.String()[at:], len(b)
}

func (r *reader) float64() float64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.BigEndian.Uint64(b))
}

// maxValueDepth bounds nesting to keep malicious inputs from exhausting
// the stack.
const maxValueDepth = 64

// value consumes one value and returns the bytes of text in it, its share
// of the arena. It is both passes of UnmarshalNamed: with build unset it
// only validates and measures, with build set it also decodes into the
// (by then grown) arena. One switch, so the two cannot disagree about the
// format.
func (r *reader) value(depth int, build bool) (v Value, text int) {
	if depth > maxValueDepth {
		r.fail("value nested too deeply")
		return
	}
	switch k := Kind(r.byte()); k {
	case KindNull:
	case KindBool:
		v = Bool(r.byte() != 0)
	case KindNumber:
		if r.byte() == 0 {
			v = Int(r.varint())
		} else {
			v = Double(r.float64())
		}
	case KindTimestamp:
		sec := r.varint()
		if sec < -maxTimestampSec || sec > maxTimestampSec {
			r.fail("timestamp out of range")
		}
		v = Timestamp(time.Unix(sec, r.varint()))
	case KindString, KindReference, KindBytes:
		v.kind = k
		v.s, text = r.str(build)
	case KindGeoPoint:
		lat := r.float64()
		v = Geo(lat, r.float64())
	case KindArray:
		n := r.length()
		var arr []Value
		if build {
			arr = make([]Value, 0, n)
		}
		for ; n > 0 && r.err == nil; n-- {
			e, t := r.value(depth+1, build)
			text += t
			if build {
				arr = append(arr, e)
			}
		}
		if build {
			v = Array(arr...)
		}
	case KindMap:
		n := r.length()
		var m map[string]Value
		if build {
			m = make(map[string]Value, n)
		}
		for ; n > 0 && r.err == nil; n-- {
			k, kt := r.str(build)
			e, t := r.value(depth+1, build)
			text += kt + t
			if build {
				m[k] = e
			}
		}
		if build {
			v = Map(m)
		}
	default:
		r.fail(fmt.Sprintf("unknown value kind %d", k))
	}
	return v, text
}
