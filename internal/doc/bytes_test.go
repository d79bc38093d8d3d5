package doc_test

import (
	"bytes"
	"testing"

	"firestore/internal/doc"
	"firestore/internal/encoding"
)

// TestBytesValueIsImmutable: a bytes value holds its own copy of the
// payload, hands out copies, and orders, encodes and stores the payload's
// bytes (0x00 and 0xFF included) as it did while it held a slice.
func TestBytesValueIsImmutable(t *testing.T) {
	src := []byte{0x00, 0xff, 'x'}
	v := doc.Bytes(src)
	src[0], src[2] = 0x7f, 'y'
	if got := v.BytesVal(); !bytes.Equal(got, []byte{0x00, 0xff, 'x'}) {
		t.Fatalf("value follows its source slice: %x", got)
	}
	a, b := v.BytesVal(), v.BytesVal()
	a[1] = 0x01
	if b[1] != 0xff || v.BytesString() != "\x00\xffx" {
		t.Fatalf("BytesVal results alias: %x, %x, value %x", a, b, v.BytesString())
	}

	// Ascending: the empty payload, then byte-wise with a prefix first.
	asc := []doc.Value{
		doc.String("\xff\xff"),
		doc.Bytes(nil), doc.Bytes([]byte{0x00}), doc.Bytes([]byte{0x00, 0x00}),
		doc.Bytes([]byte{0x00, 0xff}), doc.Bytes([]byte{0x01}), doc.Bytes([]byte{0xff}),
		doc.Reference("/a/b"),
	}
	for i := range asc {
		for j := range asc {
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got := doc.Compare(asc[i], asc[j]); got != want {
				t.Errorf("Compare(%v, %v) = %d, want %d", asc[i], asc[j], got, want)
			}
			ei, ej := encoding.EncodeValue(nil, asc[i]), encoding.EncodeValue(nil, asc[j])
			if got := bytes.Compare(ei, ej); got != want {
				t.Errorf("encodings of %v and %v compare %d, want %d", asc[i], asc[j], got, want)
			}
		}
	}
	// 0x00 is escaped to 0x00 0xff, and 0x00 0x01 ends the payload.
	want := []byte{encoding.KindTag(doc.KindBytes), 0x00, 0xff, 0xff, 0x00, 0x01}
	if got := encoding.EncodeValue(nil, doc.Bytes([]byte{0x00, 0xff})); !bytes.Equal(got, want) {
		t.Errorf("EncodeValue = %x, want %x", got, want)
	}

	d := &doc.Document{Name: doc.MustName("/c/d"), Fields: map[string]doc.Value{
		"b": v,
		"m": doc.Map(map[string]doc.Value{"z": doc.Bytes([]byte{0xff, 0x00})}),
	}}
	blob := doc.Marshal(d)
	// The kind, the payload's length and the payload as they are.
	if !bytes.Contains(blob, []byte{byte(doc.KindBytes), 3, 0x00, 0xff, 'x'}) {
		t.Errorf("Marshal does not hold the payload as it is: %x", blob)
	}
	got, err := doc.Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(d) || got.Fields["b"].BytesString() != "\x00\xffx" ||
		got.Fields["m"].MapVal()["z"].BytesString() != "\xff\x00" {
		t.Fatalf("round trip: %v, want %v", got.Fields, d.Fields)
	}
}
