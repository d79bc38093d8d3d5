package storage

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"firestore/internal/obs"
	"firestore/internal/truetime"
)

// TestPickRun pins the tiering rule on the shapes that matter.
func TestPickRun(t *testing.T) {
	for _, c := range []struct {
		name   string
		tiers  []int
		lo, hi int
	}{
		{"below the fan-in", []int{2, 1, 1, 0, 0, 0}, 0, 0},
		{"a full tier", []int{2, 0, 0, 0, 0}, 1, 5},
		{"more than the fan-in merge at once", []int{3, 0, 0, 0, 0, 0, 0}, 1, 7},
		{"the lowest tier first", []int{3, 1, 1, 1, 1, 0, 0, 0, 0}, 5, 9},
		{"a smaller segment between is swept along", []int{3, 1, 0, 1, 1, 1, 0}, 1, 6},
		{"a larger one between keeps them apart", []int{0, 0, 1, 0, 0}, 0, 0},
		{"the bottom is leveled: older segments of the output's class join", []int{1, 0, 0, 0, 0}, 0, 5},
		{"but not older segments above it", []int{2, 1, 0, 0, 0, 0}, 2, 6},
	} {
		if lo, hi := pickRun(c.tiers, 4); lo != c.lo || hi != c.hi {
			t.Errorf("%s: pickRun(%v) = [%d, %d), want [%d, %d)", c.name, c.tiers, lo, hi, c.lo, c.hi)
		}
	}
}

// TestTieringBoundsWriteAmplification: N memtables of random keys cost
// O(N log N) memtables of merge output — a byte is rewritten once per
// tier it climbs, not once per CompactAt flushes — and leave O(log N)
// segments. At the parent commit the same writes rewrote N²/8 memtables.
func TestTieringBoundsWriteAmplification(t *testing.T) {
	const (
		memCap  = 8 << 10
		fan     = 4
		flushes = 256
	)
	reg := obs.NewRegistry()
	e := openDiskAt(t, t.TempDir(), 1, Options{MemtableCap: memCap, CompactAt: fan, Obs: reg})
	defer e.Close()
	rng := rand.New(rand.NewSource(5))
	val := make([]byte, 100)
	var ts truetime.Timestamp
	for e.Stats().Flushes < flushes {
		ts++
		batch := make([]Write, 16)
		for i := range batch {
			batch[i] = Write{Key: []byte(fmt.Sprintf("key-%016x", rng.Uint64())), Value: val}
		}
		if err := e.Apply(context.Background(), batch, ts); err != nil {
			t.Fatal(err)
		}
	}
	tiers := math.Log(flushes) / math.Log(fan)
	written := float64(reg.Counter(metricMergeWritten, nil).Value()) / memCap
	read := float64(reg.Counter(metricMergeRead, nil).Value()) / memCap
	st := e.Stats()
	t.Logf("%d flushes: %d merges read %.0f and wrote %.0f memtables (%.2f per flush and tier), %d segments live, debt %d",
		st.Flushes, st.Compactions, read, written, written/flushes/tiers, st.Segments, e.compactionDebt())
	if bound := 1.5 * flushes * tiers; written > bound || read > bound {
		t.Errorf("merges read %.0f and wrote %.0f memtables for %d flushes, want <= %.0f (1.5 N log4 N)", read, written, flushes, bound)
	}
	if bound := fan * (int(tiers) + 1); st.Segments > bound {
		t.Errorf("%d live segments, want <= %d", st.Segments, bound)
	}
	if debt := e.compactionDebt(); debt != 0 {
		t.Errorf("compaction debt %d bytes after the writer returned, want 0: every merge the rule asks for has run", debt)
	}
	// The factory's gauges sum its open engines: here, this one.
	for name, want := range map[string]float64{
		metricMemtableBytes: float64(st.MemtableBytes),
		metricSegments:      float64(st.Segments),
		metricSegmentBytes:  float64(st.SegmentBytes),
		metricMergeDebt:     float64(e.compactionDebt()),
	} {
		if got := reg.Gauge(name, nil).Value(); got != want {
			t.Errorf("gauge %s = %v, want %v", name, got, want)
		}
	}
}

// disjointRuns fills e (compaction off) with segments segments of chains
// chains each, every key above the last.
func disjointRuns(t *testing.T, e *Disk, segments, chains int) {
	t.Helper()
	val := make([]byte, 64)
	n := 0
	for s := 0; s < segments; s++ {
		for i := 0; i < chains; i++ {
			n++
			put(t, e, fmt.Sprintf("key-%08d", n), val, truetime.Timestamp(n))
		}
		e.mu.Lock()
		flushed := e.flushLocked(context.Background())
		e.mu.Unlock()
		if !flushed {
			t.Fatal("flush failed")
		}
	}
}

// TestCompactionAllocs: a merge streams. Folding four segments of a
// thousand chains each, no key in two of them, allocates for the merge —
// the writer's buffer, index and key hashes, the output's index and filter
// once opened, a manifest — and nothing per chain. The parent commit's
// compaction decoded every chain into a []Chain: 3+ allocations each.
func TestCompactionAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops entries under -race; allocation counts mean nothing")
	}
	const chains = 1000
	e := openDiskAt(t, t.TempDir(), 1, Options{MemtableCap: bigCap, CompactAt: -1})
	defer e.Close()
	disjointRuns(t, e, 3*4, chains)
	next := 0
	got := testing.AllocsPerRun(2, func() {
		// Each run leaves its output where its inputs began.
		if !mergeRun(e, next, next+4) {
			t.Fatal("merge failed")
		}
		next++
	})
	t.Logf("merging 4 segments of %d chains: %.0f allocations", chains, got)
	if got > 150 {
		t.Errorf("merging 4 x %d disjoint chains allocates %.0f times, want <= 150: O(1) per segment, not per chain", chains, got)
	}
	if st := e.Stats(); st.Segments != 3 || st.Keys != 12*chains {
		t.Fatalf("%d segments holding %d chains after three merges, want 3 holding %d", st.Segments, st.Keys, 12*chains)
	}
}

// readings is what a set of reads returned: Get of every key and a full
// Scan, at each of several timestamps.
func readings(e Engine, keys []string, at []truetime.Timestamp) string {
	var b bytes.Buffer
	for _, ts := range at {
		for _, k := range keys {
			v, vts, ok := e.Get([]byte(k), ts)
			fmt.Fprintf(&b, "get %s@%d = %x %d %v\n", k, ts, v, vts, ok)
		}
		for _, r := range collectScan(e, ts) {
			fmt.Fprintf(&b, "scan @%d %s = %x %d\n", ts, r.Key, r.Value, r.TS)
		}
	}
	return b.String()
}

// TestMergeRunsOffTheLock holds a merge open — planned, its inputs
// pinned, nothing written yet — while a reader and another writer use
// the engine: Get and Scan return, Apply returns and flushes twice, none
// of them waits. Then the merge runs and its output lands in place of
// exactly its inputs, before the segments flushed meanwhile, under a
// name none of them took; every read answers as it did before the merge,
// at each timestamp, and again after a reopen.
func TestMergeRunsOffTheLock(t *testing.T) {
	dir := t.TempDir()
	e := openDiskAt(t, dir, 1, Options{MemtableCap: bigCap, CompactAt: 2})
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	var ts truetime.Timestamp
	var keys []string
	for i := 0; i < 60; i++ {
		keys = append(keys, fmt.Sprintf("row-%03d", i))
	}
	// churnAndFlush is one memtable's worth of a writer's life.
	churnAndFlush := func() error {
		for i := 0; i < 40; i++ {
			ts++
			if err := e.Apply(ctx, randomWrites(rng, 4), ts); err != nil {
				return err
			}
		}
		e.mu.Lock()
		defer e.mu.Unlock()
		if !e.flushLocked(ctx) {
			return fmt.Errorf("flush failed")
		}
		return nil
	}
	for i := 0; i < 4; i++ {
		if err := churnAndFlush(); err != nil {
			t.Fatal(err)
		}
	}
	at := []truetime.Timestamp{ts, ts - 30, ts - 90, 1}

	e.mu.Lock()
	c := e.startMergeLocked(1, 4) // not the oldest: a merge that may drop nothing
	e.mu.Unlock()
	if c == nil {
		t.Fatal("no merge started")
	}
	e.mu.Lock()
	if second := e.startMergeLocked(0, 2); second != nil {
		t.Fatal("a second merge started while one is in flight")
	}
	e.mu.Unlock()

	before := readings(e, keys, at)
	done := make(chan error, 1)
	go func() { // the other writer: Apply, flush and compact all return
		var err error
		for i := 0; i < 2 && err == nil; i++ {
			err = churnAndFlush()
			e.compact() // two tiers are full; the merge in flight keeps them waiting
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("a writer waited on the merge in flight")
	}
	if st := e.Stats(); st.Segments != 6 || st.Compactions != 0 {
		t.Fatalf("%d segments, %d compactions while the merge is held open, want 6 and 0", st.Segments, st.Compactions)
	}
	if got := readings(e, keys, at); got != before {
		t.Fatal("reads at old timestamps changed while the merge was held open")
	}
	during := readings(e, keys, append(at, ts))

	meta, err := e.runMerge(c)
	if err != nil || !e.finishMerge(c, meta, err) {
		t.Fatalf("merge: %v", err)
	}
	e.mu.RLock()
	var names []string
	for _, s := range e.segs {
		names = append(names, s.meta.Name)
	}
	e.mu.RUnlock()
	// Segments 1..4 flushed first, the merge reserved 5, the flushes
	// during it took 6 and 7; 5 replaces 2..4 where they were.
	if want := []string{segmentName(1), segmentName(5), segmentName(6), segmentName(7)}; !slices.Equal(names, want) {
		t.Fatalf("segments after the swap: %v, want %v", names, want)
	}
	if got := readings(e, keys, append(at, ts)); got != during {
		t.Fatal("reads changed across the swap")
	}
	if files, _ := filepath.Glob(filepath.Join(dir, tabletDirName(1), "seg-*")); len(files) != len(names) {
		t.Fatalf("%d segment files on disk, %d live", len(files), len(names))
	}
	e.Close()
	re := openDiskAt(t, dir, 1, Options{MemtableCap: bigCap, CompactAt: -1})
	defer re.Close()
	if got := readings(re, keys, append(at, ts)); got != during {
		t.Fatal("reads changed across the swap and a reopen")
	}
}

// copyDir copies the files of src into a new directory dst: what a
// process killed at this instant leaves on disk.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.Mkdir(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(src, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, f.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestKilledBetweenRenameAndSwap: a merge's output is renamed into place
// and the process dies before the manifest names it. Reopening serves
// the state from before the merge, and the directory holds what the
// manifest lists and nothing else — not the orphaned output, not a torn
// temp file. At the parent commit both stayed for the life of the tablet.
func TestKilledBetweenRenameAndSwap(t *testing.T) {
	root := t.TempDir()
	e := openDiskAt(t, root, 1, Options{MemtableCap: 1 << 10, CompactAt: -1})
	rng := rand.New(rand.NewSource(3))
	shadow := newModel()
	var ts truetime.Timestamp
	for i := 0; i < 200; i++ {
		ts++
		w := randomWrites(rng, 3)
		shadow.apply(w, ts)
		if err := e.Apply(context.Background(), w, ts); err != nil {
			t.Fatal(err)
		}
	}
	e.mu.Lock()
	c := e.startMergeLocked(0, len(e.segs))
	e.mu.Unlock()
	meta, err := e.runMerge(c)
	if err != nil {
		t.Fatal(err)
	}
	// The kill: the directory as it is now, plus a temp file torn mid-write.
	killed := filepath.Join(t.TempDir(), tabletDirName(1))
	copyDir(t, filepath.Join(root, tabletDirName(1)), killed)
	if err := os.WriteFile(filepath.Join(killed, segmentName(99)+".tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(killed, meta.Name)); err != nil {
		t.Fatalf("the merge's output is not in the killed directory: %v", err)
	}
	if !e.finishMerge(c, meta, nil) {
		t.Fatal("the surviving engine's swap failed")
	}
	e.Close()

	re := openDiskAt(t, filepath.Dir(killed), 1, Options{MemtableCap: 1 << 10, CompactAt: -1})
	defer re.Close()
	for _, at := range []truetime.Timestamp{ts, ts - 7, ts - 100} {
		if !sameRows(collectScan(re, at), shadow.scan(at)) {
			t.Fatalf("scan @%d after the kill differs from the model", at)
		}
	}
	re.mu.RLock()
	want := []string{manifestName, walFileName(re.walSeq)}
	for _, s := range re.segs {
		want = append(want, s.meta.Name)
	}
	re.mu.RUnlock()
	files, err := os.ReadDir(killed)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range files {
		got = append(got, f.Name())
	}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("directory after reopen holds %v, want exactly %v", got, want)
	}
	if slices.Contains(got, meta.Name) {
		t.Fatalf("the orphaned merge output %s survived the reopen", meta.Name)
	}
}

// TestBottomMergeRetiresDeadChains: the retention contract, applied to
// whole chains. A key deleted more than GCRetention before the newest
// write of the run is gone after a merge that includes the oldest
// segment, and reads as absent at every timestamp retention still
// covers, as it did before; one deleted inside the window keeps its
// history; and a merge above the oldest segment drops nothing at all.
func TestBottomMergeRetiresDeadChains(t *testing.T) {
	e := openDiskAt(t, t.TempDir(), 1, Options{MemtableCap: bigCap, CompactAt: -1})
	defer e.Close()
	flush := func() {
		e.mu.Lock()
		defer e.mu.Unlock()
		if !e.flushLocked(context.Background()) {
			t.Fatal("flush failed")
		}
	}
	del := func(key string, ts truetime.Timestamp) {
		if err := e.Apply(context.Background(), []Write{{Key: []byte(key), Delete: true}}, ts); err != nil {
			t.Fatal(err)
		}
	}
	base := truetime.Timestamp(time.Hour)
	newest := base.Add(3 * GCRetention)
	put(t, e, "dead", []byte("v"), base)
	put(t, e, "dying", []byte("v"), base)
	put(t, e, "live", []byte("v"), base)
	flush() // segment 0
	del("dead", base.Add(GCRetention/2))
	flush() // segment 1
	del("dying", newest.Add(-GCRetention/2))
	flush() // segment 2
	put(t, e, "live", []byte("w"), newest)
	flush() // segment 3

	chains := func() map[string]int {
		m := map[string]int{}
		for _, c := range chainsOf(e, nil, nil) {
			m[string(c.Key)] = len(c.Versions)
		}
		return m
	}
	all := map[string]int{"dead": 2, "dying": 2, "live": 2}
	if !mergeRun(e, 1, 4) {
		t.Fatal("merge failed")
	}
	if got := chains(); fmt.Sprint(got) != fmt.Sprint(all) {
		t.Fatalf("chains after a merge above the oldest segment: %v, want all of %v", got, all)
	}
	if v, _, ok := e.Get([]byte("dead"), base); !ok || string(v) != "v" {
		t.Fatal("a merge above the oldest segment lost history beneath a tombstone")
	}
	if !mergeRun(e, 0, 2) {
		t.Fatal("bottom merge failed")
	}
	if got, want := chains(), map[string]int{"dying": 2, "live": 2}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("chains after the bottom merge: %v, want %v", got, want)
	}
	for _, at := range []truetime.Timestamp{newest.Add(-GCRetention), newest.Add(-GCRetention / 4), newest, truetime.Max} {
		if _, _, ok := e.Get([]byte("dead"), at); ok {
			t.Fatalf("retired key readable @%d", at)
		}
	}
	if v, _, ok := e.Get([]byte("dying"), newest.Add(-GCRetention)); !ok || string(v) != "v" {
		t.Fatal("a key deleted inside the retention window lost the version before its tombstone")
	}
	if _, _, ok := e.Get([]byte("dying"), newest); ok {
		t.Fatal("deleted key readable after its tombstone")
	}
}

// TestSegmentFilter: a segment's filter never rules out a key the segment
// holds, and rules out nearly every key it does not — a point read of
// an absent key costs no pread.
func TestSegmentFilter(t *testing.T) {
	const chains = 10_000
	reg := obs.NewRegistry()
	e := openDiskAt(t, t.TempDir(), 1, Options{MemtableCap: bigCap, CompactAt: -1, Obs: reg})
	defer e.Close()
	disjointRuns(t, e, 1, chains)
	e.mu.RLock()
	seg := e.segs[0]
	e.mu.RUnlock()
	if seg.meta.Chains != chains || len(seg.filter) != chains*filterBitsPerKey/8 {
		t.Fatalf("segment of %d chains with a %d-byte filter", seg.meta.Chains, len(seg.filter))
	}
	for i := 1; i <= chains; i++ {
		key := []byte(fmt.Sprintf("key-%08d", i))
		if !seg.mayContain(keyHash(key)) {
			t.Fatalf("filter rules out %s, which the segment holds", key)
		}
		if _, _, ok := e.Get(key, truetime.Max); !ok {
			t.Fatalf("Get(%s) missed", key)
		}
	}
	skips := reg.Counter(metricFilterSkips, nil)
	if n := skips.Value(); n != 0 {
		t.Fatalf("%d filter skips while reading keys the segment holds", n)
	}
	const probes = 10_000
	for i := 0; i < probes; i++ {
		if _, _, ok := e.Get([]byte(fmt.Sprintf("kez-%08d", i)), truetime.Max); ok {
			t.Fatal("an absent key was found")
		}
	}
	t.Logf("%d of %d reads of absent keys touched no segment file", skips.Value(), probes)
	if n := skips.Value(); n < probes*95/100 {
		t.Errorf("%d of %d reads of absent keys skipped the segment, want >= 95%%", n, probes)
	}
}

// TestOldFormatSegmentRefused: a segment file in the layout before the
// filter block fails to open with an error that says why.
func TestOldFormatSegmentRefused(t *testing.T) {
	dir := t.TempDir()
	data, err := os.ReadFile(filepath.Join("testdata", "v1.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "old.seg"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openSegment(dir, segmentMeta{Name: "old.seg"}); err == nil || !bytes.Contains([]byte(err.Error()), []byte("FSSEG001")) {
		t.Fatalf("opening a FSSEG001 file: %v, want an error naming the magic", err)
	}
}

// TestMergeVerifiesChecksums: a merge checks each input's footer CRC as
// it streams the input, before its output is renamed into place. One
// value byte flipped in a flushed segment fails the merge as a chain that
// does not parse does: the engine is marked crashed, the inputs stay
// live, and no other file carries the byte. Unchecked, the chain only
// that input holds was copied as its bytes into an output with a fresh,
// valid checksum, and the flip was permanent.
func TestMergeVerifiesChecksums(t *testing.T) {
	dir := t.TempDir()
	e := openDiskAt(t, dir, 1, Options{MemtableCap: bigCap, CompactAt: -1})
	defer e.Close()
	val := []byte("a value one bit of which goes bad")
	for i, key := range []string{"a", "b"} {
		put(t, e, key, val, truetime.Timestamp(i+1))
		e.mu.Lock()
		flushed := e.flushLocked(context.Background())
		e.mu.Unlock()
		if !flushed {
			t.Fatal("flush failed")
		}
	}
	inputs := []string{e.segs[0].meta.Name, e.segs[1].meta.Name}
	path := filepath.Join(e.dir, inputs[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(data, val)
	bad := bytes.Clone(val)
	bad[5] ^= 0x20
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(bad, int64(at)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	e.mu.Lock()
	c := e.startMergeLocked(0, 2)
	e.mu.Unlock()
	meta, err := e.runMerge(c)
	installed := e.finishMerge(c, meta, err)
	if !errors.Is(err, errTornFrame) {
		t.Fatalf("merging a segment with a flipped value byte: %v, want a checksum failure", err)
	}
	if installed || !e.Crashed() {
		t.Fatalf("the failed merge installed, or the engine serves on (crashed %v)", e.Crashed())
	}
	if got := e.man.Segments; len(got) != 2 || got[0].Name != inputs[0] || got[1].Name != inputs[1] {
		t.Fatalf("manifest lists %+v after the refused merge, want the inputs %v", got, inputs)
	}
	entries, err := os.ReadDir(e.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		name := ent.Name()
		if b, err := os.ReadFile(filepath.Join(e.dir, name)); err != nil || name != inputs[0] && bytes.Contains(b, bad) {
			t.Errorf("%s carries the flipped byte (%v)", name, err)
		}
		if strings.HasSuffix(name, ".tmp") || strings.HasPrefix(name, "seg-") && !slices.Contains(inputs, name) {
			t.Errorf("the refused merge left %s behind", name)
		}
	}
}
