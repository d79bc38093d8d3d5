package storage

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"firestore/internal/truetime"
)

// encodeCommit builds a commit record as Disk.Apply does.
func encodeCommit(writes []Write, ts truetime.Timestamp) *walFrame {
	fr := newFrame(recCommit)
	fr.b = AppendWrites(fr.b, writes, ts)
	return fr
}

// appendFrame appends fr to buf as Disk.append writes it, and releases it.
func appendFrame(buf []byte, fr *walFrame) []byte {
	fr.seal()
	buf = append(buf, fr.b...)
	fr.release()
	return buf
}

// buildWAL encodes n commit records and returns the file bytes plus the
// offset just past each frame (boundaries[i] = end of record i).
func buildWAL(n int, rng *rand.Rand) (data []byte, boundaries []int64, recs [][]Write) {
	for i := 0; i < n; i++ {
		var writes []Write
		for j := 0; j <= rng.Intn(3); j++ {
			key := []byte(fmt.Sprintf("key-%03d-%d", i, j))
			val := make([]byte, rng.Intn(64))
			rng.Read(val)
			writes = append(writes, Write{Key: key, Value: val, Delete: rng.Intn(8) == 0})
		}
		data = appendFrame(data, encodeCommit(writes, timestampOf(i)))
		boundaries = append(boundaries, int64(len(data)))
		recs = append(recs, writes)
	}
	return data, boundaries, recs
}

func timestampOf(i int) truetime.Timestamp { return truetime.Timestamp(1000 + i) }

// TestWALTornTailRecovery is the torn-tail property test: for any
// truncation point (crash mid-append), replay recovers exactly the
// records whose frames are complete — a prefix — and reports the torn
// tail so recovery can truncate it.
func TestWALTornTailRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	data, boundaries, recs := buildWAL(40, rng)
	dir := t.TempDir()
	path := filepath.Join(dir, walFileName(1))

	cuts := map[int64]bool{0: true, int64(len(data)): true}
	for _, b := range boundaries {
		cuts[b] = true
		if b > 0 {
			cuts[b-1] = true // one byte short of a boundary: torn
		}
		cuts[b+1] = true // one byte into the next header
	}
	for i := 0; i < 200; i++ {
		cuts[int64(rng.Intn(len(data)+1))] = true
	}

	for cut := range cuts {
		if cut > int64(len(data)) {
			continue
		}
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		// wantPrefix = number of fully contained frames.
		wantPrefix := 0
		var wantOff int64
		for i, b := range boundaries {
			if b <= cut {
				wantPrefix = i + 1
				wantOff = b
			}
		}
		var got [][]Write
		goodOff, torn, err := replayWAL(path, func(rec walRecord) error {
			if rec.kind != recCommit {
				t.Fatalf("cut %d: unexpected record kind %d", cut, rec.kind)
			}
			got = append(got, rec.writes)
			return nil
		})
		if err != nil {
			t.Fatalf("cut %d: replay error: %v", cut, err)
		}
		if len(got) != wantPrefix {
			t.Fatalf("cut %d: replayed %d records, want prefix %d", cut, len(got), wantPrefix)
		}
		if goodOff != wantOff {
			t.Fatalf("cut %d: goodOff %d, want %d", cut, goodOff, wantOff)
		}
		if wantTorn := cut != wantOff; torn != wantTorn {
			t.Fatalf("cut %d: torn=%v, want %v", cut, torn, wantTorn)
		}
		for i := range got {
			for j := range got[i] {
				if !bytes.Equal(got[i][j].Key, recs[i][j].Key) || !bytes.Equal(got[i][j].Value, recs[i][j].Value) || got[i][j].Delete != recs[i][j].Delete {
					t.Fatalf("cut %d: record %d write %d differs", cut, i, j)
				}
			}
		}
	}
}

// TestWALCorruptMiddleStopsReplay: a flipped bit mid-file (not just a
// truncated tail) must also stop replay at the last intact prefix.
func TestWALCorruptMiddleStopsReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data, boundaries, _ := buildWAL(10, rng)
	dir := t.TempDir()
	path := filepath.Join(dir, walFileName(1))

	corruptAt := boundaries[4] + 3 // inside record 5
	mut := append([]byte(nil), data...)
	mut[corruptAt] ^= 0xff
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	n := 0
	goodOff, torn, err := replayWAL(path, func(walRecord) error { n++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 || !torn || goodOff != boundaries[4] {
		t.Fatalf("got n=%d torn=%v goodOff=%d, want 5 true %d", n, torn, goodOff, boundaries[4])
	}
}

func TestWALNameRoundTrip(t *testing.T) {
	for _, seq := range []int{1, 7, 99999999} {
		got, ok := parseWALName(walFileName(seq))
		if !ok || got != seq {
			t.Fatalf("parseWALName(%q) = %d, %v", walFileName(seq), got, ok)
		}
	}
	for _, bad := range []string{"wal-1.log", "wal-0000001x.log", "seg-00000001.seg", "MANIFEST.json"} {
		if _, ok := parseWALName(bad); ok {
			t.Fatalf("parseWALName(%q) unexpectedly ok", bad)
		}
	}
}

// TestWALTornTailCostsItsSize: a 12-byte file whose length prefix claims
// the full 64 MiB replays as torn without allocating what it claims.
func TestWALTornTailCostsItsSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), walFileName(1))
	data := binary.LittleEndian.AppendUint32(nil, maxFrameSize)
	data = append(data, make([]byte, 8)...)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	goodOff, torn, err := replayWAL(path, func(walRecord) error { return nil })
	runtime.ReadMemStats(&after)
	if err != nil || !torn || goodOff != 0 {
		t.Fatalf("replay = goodOff %d, torn %v, err %v; want 0, true, nil", goodOff, torn, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("a 12-byte torn WAL cost %d bytes of allocation, want < 1 MiB", grew)
	}
}

// TestWALReservedAhead: the log file is zero-filled ahead of its records,
// replay ends cleanly where the zeros begin — in the newest generation
// and in one rotated away with its reservation — and recovery cuts them
// off and appends where the records ended.
func TestWALReservedAhead(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	open := func() *Disk {
		fac, err := NewDiskFactory(dir, Options{MemtableCap: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		e, err := fac.Open(1, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return e.(*Disk)
	}
	put := func(e *Disk, i int) {
		t.Helper()
		if err := e.Apply(ctx, []Write{{Key: []byte{'k', byte(i)}, Value: []byte{byte(i)}}}, timestampOf(i)); err != nil {
			t.Fatal(err)
		}
	}
	e := open()
	if err := e.Commission(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		put(e, i)
	}
	records := e.Stats().WALBytes
	e.Close() // crash: the reservation stays in the file
	path := filepath.Join(e.dir, walFileName(1))
	if fi, err := os.Stat(path); err != nil || fi.Size() != walChunk || records >= walChunk {
		t.Fatalf("log file is %v bytes (%v) holding %d of records, want one %d-byte chunk", fi.Size(), err, records, walChunk)
	}
	n := 0
	if goodOff, torn, err := replayWAL(path, func(walRecord) error { n++; return nil }); err != nil || torn || goodOff != records || n != 3 {
		t.Fatalf("replay of a reserved log = (%d, torn %v, %v) with %d records, want (%d, false, nil) with 3", goodOff, torn, err, n, records)
	}
	// A newer generation beside it: the reserved one is no longer the tail.
	next := appendFrame(nil, encodeCommit([]Write{{Key: []byte{'k', 3}, Value: []byte{3}}}, timestampOf(3)))
	if err := os.WriteFile(filepath.Join(e.dir, walFileName(2)), next, 0o644); err != nil {
		t.Fatal(err)
	}

	e = open()
	if fi, err := os.Stat(path); err != nil || fi.Size() != records {
		t.Fatalf("recovery left the log at %v bytes (%v), want its %d of records", fi.Size(), err, records)
	}
	put(e, 4)
	e.Close()
	e = open()
	defer e.Close()
	for i := 0; i < 5; i++ {
		if v, _, ok := e.Get([]byte{'k', byte(i)}, truetime.Max); !ok || !bytes.Equal(v, []byte{byte(i)}) {
			t.Fatalf("record %d after two recoveries = (%v, %v)", i, v, ok)
		}
	}
}

// FuzzReplayWAL: arbitrary bytes in a WAL file never panic the replay,
// and goodOff stops at a boundary of the leading run of intact frames —
// never past the last one, never inside one.
func FuzzReplayWAL(f *testing.F) {
	good, _, _ := buildWAL(8, rand.New(rand.NewSource(3)))
	f.Add(good)
	f.Add(good[:len(good)-3])
	undecodable := newFrame(recCommit)
	undecodable.b = append(undecodable.b, 0x80)
	f.Add(appendFrame(bytes.Clone(good), undecodable)) // an intact frame that does not decode
	f.Add(binary.LittleEndian.AppendUint32(nil, maxFrameSize))
	f.Add(append(bytes.Clone(good), make([]byte, 64)...)) // records, then reservation
	path := filepath.Join(f.TempDir(), walFileName(1))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		goodOff, _, err := replayWAL(path, func(walRecord) error { return nil })
		if err != nil {
			t.Fatalf("replay error: %v", err)
		}
		// The reference walk trusts nothing but header arithmetic and the
		// checksum.
		off := int64(0)
		for off != goodOff {
			if int64(len(data))-off < frameHeaderSize {
				t.Fatalf("goodOff %d is not a boundary of the intact prefix (walk ended at %d of %d)", goodOff, off, len(data))
			}
			n := int64(binary.LittleEndian.Uint32(data[off:]))
			end := off + frameHeaderSize + n
			if end > int64(len(data)) || crc32.Checksum(data[off+frameHeaderSize:end], castagnoli) != binary.LittleEndian.Uint32(data[off+4:]) {
				t.Fatalf("goodOff %d is past the last intact frame, which ends at %d", goodOff, off)
			}
			off = end
		}
	})
}
