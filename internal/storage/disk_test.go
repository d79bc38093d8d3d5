package storage

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"firestore/internal/fault"
	"firestore/internal/truetime"
)

// model is an unbounded shadow MVCC store the Disk engine is checked
// against (no GC, no durability — pure semantics).
type model struct {
	chains map[string][]Version
}

func newModel() *model { return &model{chains: map[string][]Version{}} }

func (m *model) apply(writes []Write, ts truetime.Timestamp) {
	for _, w := range writes {
		k := string(w.Key)
		m.chains[k] = append(m.chains[k], Version{TS: ts, Value: w.Value, Deleted: w.Delete})
	}
}

func (m *model) get(key []byte, ts truetime.Timestamp) ([]byte, bool) {
	v, ok := newestAtOrBefore(m.chains[string(key)], ts)
	if !ok || v.Deleted {
		return nil, false
	}
	return v.Value, true
}

func (m *model) scan(ts truetime.Timestamp) []Row {
	var rows []Row
	for k, vs := range m.chains {
		if v, ok := newestAtOrBefore(vs, ts); ok && !v.Deleted {
			rows = append(rows, Row{Key: []byte(k), Value: v.Value, TS: v.TS})
		}
	}
	sortRows(rows)
	return rows
}

func sortRows(rows []Row) {
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && bytes.Compare(rows[j].Key, rows[j-1].Key) < 0; j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
		}
	}
}

func collectScan(e Engine, ts truetime.Timestamp) []Row {
	var rows []Row
	e.Scan(nil, nil, ts, false, func(r Row) bool {
		rows = append(rows, Row{Key: append([]byte(nil), r.Key...), Value: append([]byte(nil), r.Value...), TS: r.TS})
		return true
	})
	return rows
}

func sameRows(a, b []Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].Key, b[i].Key) || !bytes.Equal(a[i].Value, b[i].Value) || a[i].TS != b[i].TS {
			return false
		}
	}
	return true
}

func openEngine(t *testing.T, dir string, id uint64) Engine {
	t.Helper()
	fac, err := NewDiskFactory(dir, Options{MemtableCap: 1 << 10, CompactAt: 3})
	if err != nil {
		t.Fatal(err)
	}
	e, err := fac.Open(id, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestDiskCrashRecoveryRoundTrip: everything Apply acknowledged before a
// crash (Close without flush) is served again after recovery.
func TestDiskCrashRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	shadow := newModel()

	e := openEngine(t, dir, 1)
	if err := e.Commission(); err != nil {
		t.Fatal(err)
	}
	ts := truetime.Timestamp(100)
	for i := 0; i < 300; i++ {
		writes := randomWrites(rng, 4)
		ts++
		if err := e.Apply(ctx, writes, ts); err != nil {
			t.Fatal(err)
		}
		shadow.apply(writes, ts)
	}
	stats := e.Stats()
	if stats.Flushes == 0 {
		t.Fatalf("expected flushes with a 1KiB cap, got stats %+v", stats)
	}
	if err := e.Close(); err != nil { // crash: volatile state dropped
		t.Fatal(err)
	}

	re := openEngine(t, dir, 1)
	defer re.Close()
	if got := re.Stats(); got.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", got.Recoveries)
	}
	if got, want := re.LastDurable(), ts; got != want {
		t.Fatalf("LastDurable = %d, want %d", got, want)
	}
	if !sameRows(collectScan(re, ts), shadow.scan(ts)) {
		t.Fatal("post-recovery scan differs from shadow model")
	}
	// Spot-check snapshot reads at older timestamps within the horizon.
	for _, at := range []truetime.Timestamp{ts - 1, ts - 3} {
		for k := range shadow.chains {
			wantVal, wantOK := shadow.get([]byte(k), at)
			gotVal, _, gotOK := re.Get([]byte(k), at)
			if !versionVisibleEqual(gotVal, gotOK, wantVal, wantOK) {
				t.Fatalf("Get(%q, %d) = (%q, %v), want (%q, %v)", k, at, gotVal, gotOK, wantVal, wantOK)
			}
		}
	}
}

// versionVisibleEqual tolerates the GC horizon: a shadow hit the engine
// trimmed is only acceptable if the engine still reports some value;
// here caps are generous enough that trims never bite in-range lookups,
// so require equality.
func versionVisibleEqual(gotVal []byte, gotOK bool, wantVal []byte, wantOK bool) bool {
	return gotOK == wantOK && bytes.Equal(gotVal, wantVal)
}

// mergeRun folds the live segments [lo, hi) into one on the calling
// goroutine, as compact does a run the tiering rule picked.
func mergeRun(e *Disk, lo, hi int) bool {
	e.mu.Lock()
	c := e.startMergeLocked(lo, hi)
	e.mu.Unlock()
	meta, err := e.runMerge(c)
	return e.finishMerge(c, meta, err)
}

func randomWrites(rng *rand.Rand, n int) []Write {
	var writes []Write
	for j := 0; j < 1+rng.Intn(n); j++ {
		key := []byte(fmt.Sprintf("row-%03d", rng.Intn(60)))
		val := make([]byte, 8+rng.Intn(24))
		rng.Read(val)
		writes = append(writes, Write{Key: key, Value: val, Delete: rng.Intn(10) == 0})
	}
	return writes
}

// TestDiskCompactionEquivalence: scans before and after compaction (and
// after a recovery on top) are identical — compaction changes layout,
// never content.
func TestDiskCompactionEquivalence(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(2))

	fac, err := NewDiskFactory(dir, Options{MemtableCap: 1 << 10, CompactAt: -1})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := fac.Open(7, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := eng.(*Disk)
	if err := e.Commission(); err != nil {
		t.Fatal(err)
	}
	ts := truetime.Timestamp(500)
	for i := 0; i < 400; i++ {
		ts++
		if err := e.Apply(ctx, randomWrites(rng, 3), ts); err != nil {
			t.Fatal(err)
		}
	}
	if e.Stats().Segments < 2 {
		t.Fatalf("want >= 2 segments pre-compaction, got %d", e.Stats().Segments)
	}
	// Snapshot scans at several timestamps, compact, compare.
	checkTS := []truetime.Timestamp{ts, ts - 2, ts - 5}
	before := map[truetime.Timestamp][]Row{}
	for _, at := range checkTS {
		before[at] = collectScan(e, at)
	}
	e.mu.Lock()
	e.opts.CompactAt = 2
	e.mu.Unlock()
	e.compact() // every segment is one memtable: one tier, one run
	if got := e.Stats(); got.Segments != 1 || got.Compactions != 1 {
		t.Fatalf("post-compaction stats %+v, want 1 segment, 1 compaction", got)
	}
	for _, at := range checkTS {
		if !sameRows(collectScan(e, at), before[at]) {
			t.Fatalf("scan at %d differs after compaction", at)
		}
	}
	e.Close()
	re := openEngine(t, dir, 7)
	defer re.Close()
	for _, at := range checkTS {
		if !sameRows(collectScan(re, at), before[at]) {
			t.Fatalf("scan at %d differs after compaction + recovery", at)
		}
	}
}

// TestDiskTornApplyRecoversPrefix: a torn append (fault wal.append in
// crash mode) leaves a partial frame; recovery truncates it and serves
// exactly the acknowledged prefix.
func TestDiskTornApplyRecoversPrefix(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	shadow := newModel()

	fac, err := NewDiskFactory(dir, Options{MemtableCap: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := fac.Open(3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := eng.(*Disk)
	if err := e.Commission(); err != nil {
		t.Fatal(err)
	}
	ts := truetime.Timestamp(10)
	for i := 0; i < 25; i++ {
		ts++
		writes := []Write{{Key: []byte(fmt.Sprintf("k%02d", i)), Value: []byte{byte(i)}}}
		if err := e.Apply(ctx, writes, ts); err != nil {
			t.Fatal(err)
		}
		shadow.apply(writes, ts)
	}
	// Torn write of an unacknowledged record, then crash.
	e.tear(encodeCommit([]Write{{Key: []byte("torn"), Value: []byte("x")}}, ts+1))
	if !e.Crashed() {
		t.Fatal("engine should be crashed after torn append")
	}
	if err := e.Apply(ctx, []Write{{Key: []byte("after"), Value: []byte("y")}}, ts+2); err == nil {
		t.Fatal("Apply on crashed engine should fail")
	}
	e.Close()

	re := openEngine(t, dir, 3)
	defer re.Close()
	if got, want := re.LastDurable(), ts; got != want {
		t.Fatalf("LastDurable = %d, want %d", got, want)
	}
	if !sameRows(collectScan(re, ts+5), shadow.scan(ts+5)) {
		t.Fatal("recovered state differs from acknowledged prefix")
	}
	if _, _, ok := re.Get([]byte("torn"), ts+5); ok {
		t.Fatal("torn record must not survive recovery")
	}
}

// TestDiskFsyncFaultOutcomeUnknown: an injected wal.fsync error crashes
// the engine; the record may still be replayed (outcome unknown), and
// recovery must at minimum keep every previously acknowledged commit.
func TestDiskFsyncFaultOutcomeUnknown(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	fault.Reset()
	defer fault.Reset()
	fault.SetSeed(99)

	fac, err := NewDiskFactory(dir, Options{MemtableCap: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := fac.Open(4, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := eng.(*Disk)
	if err := e.Commission(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := e.Apply(ctx, []Write{{Key: []byte(fmt.Sprintf("a%02d", i)), Value: []byte("v")}}, truetime.Timestamp(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fault.Enable(fault.Spec{Site: fault.WALFsync, Mode: fault.ModeError}); err != nil {
		t.Fatal(err)
	}
	err = e.Apply(ctx, []Write{{Key: []byte("unknown"), Value: []byte("?")}}, 200)
	if err == nil {
		t.Fatal("Apply should fail under wal.fsync fault")
	}
	if !e.Crashed() {
		t.Fatal("engine should be crashed after fsync failure")
	}
	fault.Reset()
	e.Close()

	re := openEngine(t, dir, 4)
	defer re.Close()
	for i := 0; i < 10; i++ {
		if _, _, ok := re.Get([]byte(fmt.Sprintf("a%02d", i)), 300); !ok {
			t.Fatalf("acknowledged key a%02d lost", i)
		}
	}
	// The unacknowledged record's bytes were written before the failed
	// fsync, so with a surviving file it is legal (and here expected)
	// for replay to surface it.
	if _, _, ok := re.Get([]byte("unknown"), 300); !ok {
		t.Log("outcome-unknown record did not survive (legal)")
	}
}

// TestDiskSplitProtocol: copy + commission + a narrowing SetBounds,
// across a crash on both sides.
func TestDiskSplitProtocol(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	fac, err := NewDiskFactory(dir, Options{MemtableCap: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	left, err := fac.Open(1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := left.Commission(); err != nil {
		t.Fatal(err)
	}
	ts := truetime.Timestamp(1000)
	for i := 0; i < 200; i++ {
		ts++
		key := []byte(fmt.Sprintf("doc-%03d", i%100))
		if err := left.Apply(ctx, []Write{{Key: key, Value: []byte(fmt.Sprintf("v%d", i))}}, ts); err != nil {
			t.Fatal(err)
		}
	}
	mid := []byte("doc-050")
	right, err := fac.Open(2, mid, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := CopyChains(right, left, mid, nil); err != nil || n != 50 {
		t.Fatalf("CopyChains = %d, %v; want 50 chains", n, err)
	}
	if err := right.Commission(); err != nil {
		t.Fatal(err)
	}
	if err := left.SetBounds(nil, mid); err != nil {
		t.Fatal(err)
	}

	check := func(l, r Engine) {
		t.Helper()
		for i := 0; i < 100; i++ {
			key := []byte(fmt.Sprintf("doc-%03d", i))
			_, _, inLeft := l.Get(key, ts+10)
			_, _, inRight := r.Get(key, ts+10)
			if i < 50 && (!inLeft || inRight) {
				t.Fatalf("key %s: inLeft=%v inRight=%v, want left only", key, inLeft, inRight)
			}
			if i >= 50 && (inLeft || !inRight) {
				t.Fatalf("key %s: inLeft=%v inRight=%v, want right only", key, inLeft, inRight)
			}
		}
	}
	check(left, right)

	// Crash both sides; recovery must preserve the split.
	left.Close()
	right.Close()
	metas, err := fac.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 2 {
		t.Fatalf("List returned %d tablets, want 2", len(metas))
	}
	l2, err := fac.Open(metas[0].ID, metas[0].Start, metas[0].End)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	r2, err := fac.Open(metas[1].ID, metas[1].Start, metas[1].End)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	check(l2, r2)

	// Force compaction on the left: purge markers retire, moved keys stay
	// gone.
	ld := l2.(*Disk)
	ld.mu.Lock()
	ld.flushLocked(ctx)
	ld.mu.Unlock()
	if !mergeRun(ld, 0, ld.Stats().Segments) || ld.Stats().Segments != 1 {
		t.Fatalf("bottom merge of every segment left %d", ld.Stats().Segments)
	}
	check(l2, r2)
}

// TestFactoryListRemovesPending: a tablet directory that was never
// commissioned (crash mid-split) is removed by recovery.
func TestFactoryListRemovesPending(t *testing.T) {
	dir := t.TempDir()
	fac, err := NewDiskFactory(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := fac.Open(1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Commission(); err != nil {
		t.Fatal(err)
	}
	a.Close()
	b, err := fac.Open(2, []byte("m"), nil) // never commissioned
	if err != nil {
		t.Fatal(err)
	}
	b.Close()

	metas, err := fac.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 1 || metas[0].ID != 1 {
		t.Fatalf("List = %+v, want only tablet 1", metas)
	}
	if _, err := fac.Open(1, nil, nil); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentReadsDuringCompaction: point reads and scans racing
// flushes and compactions must never miss committed data. Segment files
// are reference-counted, so a compaction's close+unlink waits for
// in-flight readers to drain instead of yanking the files out from
// under their preads (which used to surface as a silent not-found).
func TestConcurrentReadsDuringCompaction(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	fac, err := NewDiskFactory(dir, Options{MemtableCap: 512, CompactAt: 2})
	if err != nil {
		t.Fatal(err)
	}
	e, err := fac.Open(1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Commission(); err != nil {
		t.Fatal(err)
	}
	const keys = 32
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%03d", i)) }
	var ts truetime.Timestamp
	for i := 0; i < keys; i++ {
		ts++
		if err := e.Apply(ctx, []Write{{Key: key(i), Value: []byte("seed")}}, ts); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	errCh := make(chan error, 4)
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := rng.Intn(keys)
				if _, _, ok := e.Get(key(i), truetime.Max); !ok && !e.Crashed() {
					errCh <- fmt.Errorf("key %d read as absent mid-compaction", i)
					return
				}
				n := 0
				e.Scan(nil, nil, truetime.Max, false, func(Row) bool { n++; return true })
				if n != keys && !e.Crashed() {
					errCh <- fmt.Errorf("scan saw %d keys mid-compaction, want %d", n, keys)
					return
				}
			}
		}(int64(r))
	}
	// Churn updates with values large enough to flush the 512-byte
	// memtable every few commits, compacting every second segment.
	pad := bytes.Repeat([]byte("x"), 100)
	for round := 0; round < 400; round++ {
		ts++
		if err := e.Apply(ctx, []Write{{Key: key(round % keys), Value: pad}}, ts); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if e.Crashed() {
		t.Fatal("engine crashed during fault-free churn")
	}
	st := e.Stats()
	if st.Compactions == 0 || st.Flushes == 0 {
		t.Fatalf("churn exercised flushes=%d compactions=%d, want both > 0", st.Flushes, st.Compactions)
	}
}

// TestDiskScanRepinsAcrossLayerChanges drives one forward Scan through
// many memtable rounds while its fn flushes and compacts the engine: the
// generation check must re-pin and re-seek without repeating or skipping
// a row, and an abandoned scan must leave no pin behind — every live
// segment back at the engine's single reference, every obsolete file
// unlinked.
func TestDiskScanRepinsAcrossLayerChanges(t *testing.T) {
	dir := t.TempDir()
	fac, err := NewDiskFactory(dir, Options{MemtableCap: 32 << 10, CompactAt: 3})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := fac.Open(1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := eng.(*Disk)
	defer e.Close()
	ctx := context.Background()
	shadow := newModel()
	var ts truetime.Timestamp
	put := func(k string, v []byte) {
		ts++
		w := []Write{{Key: []byte(k), Value: v}}
		shadow.apply(w, ts)
		if err := e.Apply(ctx, w, ts); err != nil {
			t.Fatal(err)
		}
	}
	key := func(i int) string { return fmt.Sprintf("key-%05d", i) }
	flush := func() { put("pad", make([]byte, 32<<10)) }
	const n = 1500
	for i := 0; i < n; i++ {
		put(key(i), []byte{1})
		if i%600 == 599 {
			flush() // two segments under a deep memtable
		}
	}
	for i := 0; i < n; i += 2 {
		put(key(i), []byte{2})
	}

	readTS := ts
	want := shadow.scan(readTS)
	for _, stopAt := range []int{700, len(want) + 1} {
		got := 0
		finished := e.Scan(nil, nil, readTS, false, func(r Row) bool {
			if !sameRows([]Row{r}, want[got:got+1]) {
				t.Fatalf("row %d = %s@%d, want %s@%d", got, r.Key, r.TS, want[got].Key, want[got].TS)
			}
			got++
			if got%100 == 50 { // every few rounds: a flush, every third a compaction
				for i := got; i < got+200 && i < n; i++ {
					put(key(i), []byte{3}) // newer than readTS: invisible to this scan
				}
				flush()
			}
			return got < stopAt
		})
		if finished != (stopAt > len(want)) || got != min(stopAt, len(want)) {
			t.Fatalf("Scan returned %v after %d of %d rows (stop at %d)", finished, got, len(want), stopAt)
		}
		e.mu.RLock()
		for _, s := range e.segs {
			if refs := s.refs.Load(); refs != 1 {
				t.Errorf("segment %s holds %d references after the scan, want the engine's 1", s.meta.Name, refs)
			}
		}
		live := len(e.segs)
		e.mu.RUnlock()
		if files, _ := filepath.Glob(filepath.Join(e.dir, "*.seg")); len(files) != live {
			t.Errorf("%d segment files on disk, %d live: a leaked pin keeps an obsolete file", len(files), live)
		}
	}
	if st := e.Stats(); st.Compactions < 2 || e.Crashed() {
		t.Fatalf("compactions=%d crashed=%v: the scans crossed no compaction", st.Compactions, e.Crashed())
	}
}
