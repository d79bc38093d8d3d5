package encoding

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"firestore/internal/doc"
)

// DecodeValue decodes one ascending EncodeValue encoding from the front
// of b, returning the value and the number of bytes consumed. It is the
// inverse EncodeValue has always deserved (only DecodeName existed):
// because encodings are prefix-free and self-delimiting, a decoder can
// read component after component out of a composite index key — which is
// what lets SUM/AVG aggregations run off index entries without ever
// materializing a document.
//
// One ambiguity is inherent to the encoding: numerically equal integers
// and doubles encode identically (3 and 3.0 share one byte string, so
// that one index range serves both). DecodeValue returns such values as
// Int when the encoded number is integral with a zero residual, Double
// otherwise. Numeric consumers (aggregation, comparisons) are unaffected;
// callers needing the original representation must not round-trip
// numbers through index keys.
func DecodeValue(b []byte) (doc.Value, int, error) {
	if len(b) == 0 {
		return doc.Value{}, 0, fmt.Errorf("%w: empty value encoding", ErrCorrupt)
	}
	switch b[0] {
	case tagNull:
		return doc.Null(), 1, nil
	case tagBool:
		if len(b) < 2 {
			return doc.Value{}, 0, fmt.Errorf("%w: truncated bool", ErrCorrupt)
		}
		return doc.Bool(b[1] != 0), 2, nil
	case tagNumber:
		return decodeNumber(b)
	case tagTimestamp:
		us, n, err := readSortableInt64(b[1:])
		if err != nil {
			return doc.Value{}, 0, err
		}
		return doc.Timestamp(time.UnixMicro(us).UTC()), 1 + n, nil
	case tagString:
		payload, n, err := ReadEscaped(b[1:])
		if err != nil {
			return doc.Value{}, 0, err
		}
		return doc.String(string(payload)), 1 + n, nil
	case tagBytes:
		payload, n, err := ReadEscaped(b[1:])
		if err != nil {
			return doc.Value{}, 0, err
		}
		if n == len(payload)+2 {
			payload = bytes.Clone(payload) // no escapes: payload aliases b
		}
		return doc.Bytes(payload), 1 + n, nil
	case tagReference:
		payload, n, err := ReadEscaped(b[1:])
		if err != nil {
			return doc.Value{}, 0, err
		}
		return doc.Reference(string(payload)), 1 + n, nil
	case tagGeoPoint:
		lat, n1, err := readSortableFloat(b[1:])
		if err != nil {
			return doc.Value{}, 0, err
		}
		lng, n2, err := readSortableFloat(b[1+n1:])
		if err != nil {
			return doc.Value{}, 0, err
		}
		return doc.Geo(lat, lng), 1 + n1 + n2, nil
	case tagArray:
		var elems []doc.Value
		i := 1
		for {
			if i >= len(b) {
				return doc.Value{}, 0, fmt.Errorf("%w: unterminated array", ErrCorrupt)
			}
			if b[i] == terminator {
				return doc.Array(elems...), i + 1, nil
			}
			el, n, err := DecodeValue(b[i:])
			if err != nil {
				return doc.Value{}, 0, err
			}
			elems = append(elems, el)
			i += n
		}
	case tagMap:
		m := map[string]doc.Value{}
		i := 1
		for {
			if i >= len(b) {
				return doc.Value{}, 0, fmt.Errorf("%w: unterminated map", ErrCorrupt)
			}
			if b[i] == terminator {
				return doc.Map(m), i + 1, nil
			}
			if b[i] != 0x01 {
				return doc.Value{}, 0, fmt.Errorf("%w: bad map entry marker 0x%02x", ErrCorrupt, b[i])
			}
			key, n, err := ReadEscaped(b[i+1:])
			if err != nil {
				return doc.Value{}, 0, err
			}
			i += 1 + n
			v, n, err := DecodeValue(b[i:])
			if err != nil {
				return doc.Value{}, 0, err
			}
			m[string(key)] = v
			i += n
		}
	}
	return doc.Value{}, 0, fmt.Errorf("%w: unknown value tag 0x%02x", ErrCorrupt, b[0])
}

// DecodeValueDesc decodes one descending (byte-inverted) encoding from
// the front of b, returning the value and the bytes consumed.
func DecodeValueDesc(b []byte) (doc.Value, int, error) {
	return DecodeValue(Invert(b))
}

func decodeNumber(b []byte) (doc.Value, int, error) {
	if len(b) < 2 {
		return doc.Value{}, 0, fmt.Errorf("%w: truncated number", ErrCorrupt)
	}
	if b[1] == 0 {
		return doc.Double(math.NaN()), 2, nil
	}
	f, n1, err := readSortableFloat(b[2:])
	if err != nil {
		return doc.Value{}, 0, err
	}
	residual, n2, err := readSortableInt64(b[2+n1:])
	if err != nil {
		return doc.Value{}, 0, err
	}
	consumed := 2 + n1 + n2
	// Reconstruct exactly what encodeNumber split apart: the rounded
	// float plus the integer residual. A non-zero residual can only come
	// from an int64 not exactly representable in float64.
	if residual != 0 {
		const two63 = 9223372036854775808.0 // 2^63
		if f >= two63 {
			return doc.Int(int64(uint64(1)<<63 + uint64(residual))), consumed, nil
		}
		return doc.Int(int64(f) + residual), consumed, nil
	}
	if f == math.Trunc(f) && f >= math.MinInt64 && f < 9223372036854775808.0 {
		return doc.Int(int64(f)), consumed, nil
	}
	return doc.Double(f), consumed, nil
}

func readSortableFloat(b []byte) (float64, int, error) {
	u, n, err := readUint64(b)
	if err != nil {
		return 0, 0, err
	}
	if u&(1<<63) != 0 {
		u &^= 1 << 63 // positive: clear the forced sign bit
	} else {
		u = ^u // negative: un-flip everything
	}
	return math.Float64frombits(u), n, nil
}

func readSortableInt64(b []byte) (int64, int, error) {
	u, n, err := readUint64(b)
	if err != nil {
		return 0, 0, err
	}
	return int64(u ^ 1<<63), n, nil
}

func readUint64(b []byte) (uint64, int, error) {
	if len(b) < 8 {
		return 0, 0, fmt.Errorf("%w: truncated 8-byte payload", ErrCorrupt)
	}
	var u uint64
	for i := 0; i < 8; i++ {
		u = u<<8 | uint64(b[i])
	}
	return u, 8, nil
}
