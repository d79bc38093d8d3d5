package encoding

import (
	"bytes"
	"testing"

	"firestore/internal/doc"
)

// FuzzDecodeValue: the index-key value decoder survives arbitrary bytes,
// consumes no more than it was given, and what it accepts re-encodes to
// a fixed point (the input itself need not be canonical: a bool byte of
// 7, a map with a repeated key).
func FuzzDecodeValue(f *testing.F) {
	for _, v := range parentValues()[:64] {
		f.Add(EncodeValue(nil, v))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		v, n, err := DecodeValue(b)
		if err != nil {
			return
		}
		if n <= 0 || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		once := EncodeValue(nil, v)
		v2, n2, err := DecodeValue(once)
		if err != nil || n2 != len(once) || !doc.Equal(v, v2) {
			t.Fatalf("re-encoded %v does not decode to itself: %v, %d of %d bytes, %v", v, v2, n2, len(once), err)
		}
		if twice := EncodeValue(nil, v2); !bytes.Equal(once, twice) {
			t.Fatalf("not a fixed point:\n%x\n%x", once, twice)
		}
	})
}
