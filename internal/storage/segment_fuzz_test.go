package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"firestore/internal/truetime"
)

// segmentBytes is a well-formed segment file of n chains.
func segmentBytes(t testing.TB, n int) []byte {
	dir := t.TempDir()
	meta, err := writeSegment(dir, "seed.seg", func(w *segmentWriter) error {
		for i := 0; i < n; i++ {
			c := Chain{Key: []byte(fmt.Sprintf("key-%04d", i)), Purged: i%7 == 0}
			for v := 0; v <= i%3; v++ {
				c.Versions = append(c.Versions, Version{TS: truetime.Timestamp(10*i + v), Value: bytes.Repeat([]byte{byte(i)}, i%40), Deleted: v == 2})
			}
			w.add(c)
		}
		return w.err
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, meta.Name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzLoadSegment: a segment file is bytes from outside the process.
// Whatever they are, opening the file and walking every chain of it —
// decoded, raw, and by point read — returns or fails, never panics, and
// allocates in proportion to the file: no offset, count or length the
// file claims sizes anything before it is checked against the bytes
// that remain.
func FuzzLoadSegment(f *testing.F) {
	good := segmentBytes(f, 50)
	f.Add(good)
	f.Add(segmentBytes(f, 1))
	f.Add(good[:len(good)/2])
	f.Add(append(bytes.Clone(good[:len(good)-segFooterSize]), make([]byte, segFooterSize)...))
	if v1, err := os.ReadFile(filepath.Join("testdata", "v1.seg")); err == nil {
		f.Add(v1)
	}
	// A 64 MiB key length and a 2^60 version count, in files of a few bytes.
	huge := append([]byte(segMagic), 0x80, 0x80, 0x80, 0x20, 'k', 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10)
	f.Add(append(huge, good[len(good)-segFooterSize:]...))

	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(filepath.Join(dir, "fuzz.seg"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		walkSegment(dir, "fuzz.seg")
		runtime.ReadMemStats(&after)
		// A decoded Version is 40 bytes for the 3 its encoding may take; the
		// constant covers a pooled stream's first use and the runtime's own.
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+1<<20); grew > bound {
			t.Fatalf("a %d-byte file cost %d bytes of allocation, want <= %d", len(data), grew, bound)
		}
	})
}

// walkSegment opens the file and reads it every way the engine does.
func walkSegment(dir, name string) {
	s, err := openSegment(dir, segmentMeta{Name: name})
	if err != nil {
		return
	}
	defer s.decRef()
	var keys [][]byte
	cs := s.stream(nil, false)
	for {
		k, err := cs.peek(nil)
		if err != nil || k == nil {
			break
		}
		if len(keys) < 64 {
			keys = append(keys, bytes.Clone(k))
		}
		if _, err := cs.take(); err != nil {
			break
		}
	}
	cs.close()
	cs = s.stream(nil, false)
	for {
		if k, err := cs.peek([]byte("key-0003")); err != nil || k == nil {
			break
		}
		if _, _, err := cs.raw(); err != nil {
			break
		}
	}
	cs.close()
	for _, k := range keys {
		s.mayContain(keyHash(k))
		s.get(k) //nolint:errcheck // a corrupt block is an error, which is fine
	}
}
