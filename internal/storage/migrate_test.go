package storage

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"firestore/internal/status"
	"firestore/internal/truetime"
)

// bigCap keeps a test's memtable from flushing, so every record the
// engine logged is still in its first WAL generation.
const bigCap = 1 << 30

func openDiskAt(t *testing.T, dir string, id uint64, opts Options) *Disk {
	t.Helper()
	fac, err := NewDiskFactory(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	e, err := fac.Open(id, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Commission(); err != nil {
		t.Fatal(err)
	}
	return e.(*Disk)
}

func put(t *testing.T, e Engine, key string, val []byte, ts truetime.Timestamp) {
	t.Helper()
	if err := e.Apply(context.Background(), []Write{{Key: []byte(key), Value: val}}, ts); err != nil {
		t.Fatalf("Apply(%s@%d): %v", key, ts, err)
	}
}

func chainsOf(e Engine, lo, hi []byte) []Chain {
	var out []Chain
	e.AscendChains(lo, hi, func(c Chain) bool { out = append(out, c); return true })
	return out
}

func sameChain(a, b Chain) bool {
	if !bytes.Equal(a.Key, b.Key) || len(a.Versions) != len(b.Versions) {
		return false
	}
	for i, v := range a.Versions {
		if w := b.Versions[i]; v.TS != w.TS || v.Deleted != w.Deleted || !bytes.Equal(v.Value, w.Value) {
			return false
		}
	}
	return true
}

// TestOversizedRecordRefused: a WAL record replay would take for a torn
// tail is refused before it reaches the file. At the parent commit the
// oversized commit was logged, fsynced and acknowledged, and the next
// recovery truncated it away together with every commit after it.
func TestOversizedRecordRefused(t *testing.T) {
	dir := t.TempDir()
	e := openDiskAt(t, dir, 1, Options{MemtableCap: bigCap})
	put(t, e, "before", []byte("1"), 10)
	err := e.Apply(context.Background(), []Write{{Key: []byte("huge"), Value: make([]byte, maxFrameSize)}}, 11)
	if status.CodeOf(err) != status.InvalidArgument {
		t.Fatalf("oversized Apply: err = %v, want InvalidArgument", err)
	}
	if e.Crashed() {
		t.Fatal("a refused record marked the engine crashed")
	}
	put(t, e, "after", []byte("2"), 12)
	e.Close()

	re := openDiskAt(t, dir, 1, Options{})
	defer re.Close()
	for key, want := range map[string]string{"before": "1", "after": "2"} {
		if v, _, ok := re.Get([]byte(key), 20); !ok || string(v) != want {
			t.Fatalf("Get(%s) after recovery = %q, %v; want %q", key, v, ok, want)
		}
	}
	if _, _, ok := re.Get([]byte("huge"), 20); ok {
		t.Fatal("the refused commit is readable after recovery")
	}
}

// TestCopyChainsIsBounded: a range of any size reaches the target in
// ingest records bounded by rows (NextScanChunk) and by bytes
// (MaxScanBytes), never in one.
func TestCopyChainsIsBounded(t *testing.T) {
	src := NewMem()
	wide := make([]byte, 1500<<10)
	for i := 0; i < 300; i++ {
		put(t, src, fmt.Sprintf("a-%03d", i), []byte("v1"), 10)
		put(t, src, fmt.Sprintf("a-%03d", i), []byte("v2"), 11)
	}
	for i := 0; i < 7; i++ { // 3 + 3 + 1 of them by MaxScanBytes
		put(t, src, fmt.Sprintf("b-%d", i), wide, 12)
	}
	dir := t.TempDir()
	dst := openDiskAt(t, dir, 1, Options{MemtableCap: bigCap})
	defer dst.Close()
	if n, err := CopyChains(dst, src, nil, nil); err != nil || n != 307 {
		t.Fatalf("CopyChains = %d, %v; want 307 chains", n, err)
	}

	var records []int // chains per ingest record
	_, torn, err := replayWAL(filepath.Join(dir, tabletDirName(1), walFileName(1)), func(rec walRecord) error {
		size := 0
		for _, c := range rec.chains {
			size += c.Bytes()
		}
		// A chunk ends with the chain that takes it past the bound.
		if rec.kind != recIngest || len(rec.chains) > MaxScanChunk || size >= MaxScanBytes+len(wide)+64 {
			t.Errorf("WAL record kind %d with %d chains, %d bytes", rec.kind, len(rec.chains), size)
		}
		records = append(records, len(rec.chains))
		return nil
	})
	if err != nil || torn {
		t.Fatalf("replay: torn=%v err=%v", torn, err)
	}
	if want := []int{32, 64, 128, 76 + 3, 3, 1}; fmt.Sprint(records) != fmt.Sprint(want) {
		t.Fatalf("ingest records carry %v chains, want %v", records, want)
	}
	got, want := chainsOf(dst, nil, nil), chainsOf(src, nil, nil)
	if len(got) != len(want) {
		t.Fatalf("target holds %d chains, source %d", len(got), len(want))
	}
	for i := range got {
		if !sameChain(got[i], want[i]) {
			t.Fatalf("chain %d (%s) differs after the copy", i, want[i].Key)
		}
	}
}

// TestIngestReplacesWhatTheEngineHeld: a chain that comes back to an
// engine that once gave it away (split, then merge) is the key's whole
// history there — neither the purge marker the narrowing left in the
// memtable nor the versions beneath it in a segment show through.
func TestIngestReplacesWhatTheEngineHeld(t *testing.T) {
	e := openDiskAt(t, t.TempDir(), 1, Options{MemtableCap: bigCap})
	defer e.Close()
	put(t, e, "a", []byte("keep"), 10)
	put(t, e, "m", []byte("old"), 10)
	e.mu.Lock()
	e.flushLocked(context.Background())
	e.mu.Unlock()
	if err := e.SetBounds(nil, []byte("k")); err != nil { // the marker for m stays in the memtable
		t.Fatal(err)
	}
	if err := e.SetBounds(nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := e.Get([]byte("m"), 100); ok {
		t.Fatal("widening resurrected a key the narrowing masked")
	}
	back := Chain{Key: []byte("m"), Versions: []Version{{TS: 10, Value: []byte("old")}, {TS: 20, Value: []byte("new")}}}
	if err := e.IngestChains([]Chain{back}); err != nil {
		t.Fatal(err)
	}
	if got := chainsOf(e, []byte("m"), nil); len(got) != 1 || !sameChain(got[0], back) {
		t.Fatalf("chain of m after the ingest = %+v, want exactly the ingested one", got)
	}
	for ts, want := range map[truetime.Timestamp]string{15: "old", 25: "new"} {
		if v, _, ok := e.Get([]byte("m"), ts); !ok || string(v) != want {
			t.Fatalf("Get(m@%d) = %q, %v; want %q", ts, v, ok, want)
		}
	}
}

// TestNarrowingInterruptedBeforeThePurge: a crash between SetBounds'
// manifest swap and its purge records leaves the moved chains in place
// under bounds that exclude them. Restart converges: the engine recovers
// with the narrowed bounds, a chain that migrates back replaces the
// leftover instead of stacking on it, and the next narrowing masks the
// rest, so a later widening finds nothing.
func TestNarrowingInterruptedBeforeThePurge(t *testing.T) {
	dir := t.TempDir()
	opts := Options{MemtableCap: bigCap}
	e := openDiskAt(t, dir, 1, opts)
	for i := 0; i < 100; i++ {
		put(t, e, fmt.Sprintf("doc-%03d", i), []byte("v1"), 10)
	}
	e.mu.Lock()
	e.flushLocked(context.Background())
	man := e.man
	e.mu.Unlock()
	put(t, e, "doc-070", []byte("v2"), 11)
	e.Close()
	// The crash: the narrowed manifest is durable, no purge record is.
	mid := []byte("doc-050")
	man.End = mid
	if err := writeManifest(filepath.Join(dir, tabletDirName(1)), man); err != nil {
		t.Fatal(err)
	}

	re := openDiskAt(t, dir, 1, opts)
	defer re.Close()
	if rows := collectScan(re, 100); len(rows) != 100 {
		t.Fatalf("recovered engine scans %d rows, want all 100 still there", len(rows))
	}
	back := Chain{Key: []byte("doc-070"), Versions: []Version{{TS: 10, Value: []byte("v1")}, {TS: 11, Value: []byte("v2")}, {TS: 12, Deleted: true}}}
	if err := re.SetBounds(nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := re.IngestChains([]Chain{back}); err != nil {
		t.Fatal(err)
	}
	if got := chainsOf(re, back.Key, KeyAfter(back.Key)); len(got) != 1 || !sameChain(got[0], back) {
		t.Fatalf("chain of %s after migrating back = %+v, want exactly the ingested one", back.Key, got)
	}
	// Narrowed again and widened: the leftovers are gone for good.
	if err := re.SetBounds(nil, mid); err != nil {
		t.Fatal(err)
	}
	if err := re.SetBounds(nil, nil); err != nil {
		t.Fatal(err)
	}
	if rows := collectScan(re, 100); len(rows) != 50 {
		t.Fatalf("%d rows after narrowing again and widening, want the 50 inside the bounds", len(rows))
	}
}

// TestParentCommitDirectoriesOpen: the WAL records and the manifest did
// not move. The two tablet directories under testdata/parent_split were
// written by the commit before migration became CopyChains (the one
// segment file among them re-encoded since, chain for chain, when the
// segment layout gained its filter block: FSSEG002) — 40 keys (doc-000..doc-039, every
// second rewritten, every eighth then deleted, memtable 1 KiB) split at
// doc-020 the old way (one ingest record, SetBounds, one purge record of
// caller-listed keys), then every sixth key from doc-001 rewritten — and
// open here with the same rows at every timestamp, the moved keys masked
// in the source also after its bounds widen again.
func TestParentCommitDirectoriesOpen(t *testing.T) {
	dir := t.TempDir()
	for _, tablet := range []string{tabletDirName(1), tabletDirName(2)} {
		files, err := os.ReadDir(filepath.Join("testdata", "parent_split", tablet))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Join(dir, tablet), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			data, err := os.ReadFile(filepath.Join("testdata", "parent_split", tablet, f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, tablet, f.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The history the fixture's generator applied, timestamps from 1001.
	shadow := newModel()
	ts := truetime.Timestamp(1000)
	write := func(i, round int) {
		ts++
		w := Write{Key: []byte(fmt.Sprintf("doc-%03d", i)), Value: []byte(fmt.Sprintf("v%d.%d", round, i)), Delete: round == 2}
		if w.Delete {
			w.Value = nil
		}
		shadow.apply([]Write{w}, ts)
	}
	for i := 0; i < 40; i++ {
		write(i, 0)
	}
	for i := 0; i < 40; i += 2 {
		write(i, 1)
	}
	for i := 0; i < 40; i += 8 {
		write(i, 2)
	}
	for i := 1; i < 40; i += 6 {
		write(i, 3)
	}

	fac, err := NewDiskFactory(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	metas, err := fac.List()
	if err != nil || len(metas) != 2 || metas[0].ID != 1 || string(metas[0].End) != "doc-020" || metas[1].ID != 2 || string(metas[1].Start) != "doc-020" {
		t.Fatalf("List = %+v, %v; want tablet 1 up to doc-020 and tablet 2 from it", metas, err)
	}
	left, err := fac.Open(1, metas[0].Start, metas[0].End)
	if err != nil {
		t.Fatal(err)
	}
	defer left.Close()
	right, err := fac.Open(2, metas[1].Start, metas[1].End)
	if err != nil {
		t.Fatal(err)
	}
	defer right.Close()
	check := func(when string) {
		t.Helper()
		for _, at := range []truetime.Timestamp{1000, 1020, 1040, 1060, 1065, ts} {
			got := append(collectScan(left, at), collectScan(right, at)...)
			if want := shadow.scan(at); !sameRows(got, want) {
				t.Fatalf("%s: the two tablets scan %d rows @%d, want %d", when, len(got), at, len(want))
			}
		}
		if rows := collectScan(left, ts); len(rows) == 0 || string(rows[len(rows)-1].Key) >= "doc-020" {
			t.Fatalf("%s: the source tablet serves a key it gave away", when)
		}
	}
	check("as recovered")
	if err := left.SetBounds(nil, nil); err != nil {
		t.Fatal(err)
	}
	check("after the source widened")
}

// TestKeyAfter: nothing sorts between a key and its successor, so a scan
// resumed there skips no key: key < KeyAfter(key) < key‖0x01.
func TestKeyAfter(t *testing.T) {
	for _, key := range [][]byte{nil, {0}, {1, 2}, {0xff}} {
		next := KeyAfter(key)
		if bytes.Compare(key, next) >= 0 || bytes.Compare(next, append(bytes.Clone(key), 1)) >= 0 {
			t.Errorf("KeyAfter(%x) = %x, want strictly between %x and %x01", key, next, key, key)
		}
	}
}
