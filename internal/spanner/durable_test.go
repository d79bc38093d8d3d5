package spanner

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"firestore/internal/fault"
	"firestore/internal/storage"
	"firestore/internal/truetime"
)

func diskConfig(t *testing.T, dir string) Config {
	t.Helper()
	fac, err := storage.NewDiskFactory(dir, storage.Options{MemtableCap: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Clock:   truetime.NewSystem(10 * time.Microsecond),
		Storage: fac,
	}
}

// TestDurableDBRestartRoundTrip: a DB on a disk factory recovers every
// acknowledged commit after close + reopen, including state that passed
// through segment flush.
func TestDurableDBRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	db, err := Open(diskConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	var lastTS truetime.Timestamp
	for i := 0; i < 200; i++ {
		txn := db.Begin()
		k := fmt.Sprintf("key-%03d", i%50)
		v := fmt.Sprintf("val-%d-%032d", i, i) // pad to force flushes past the 2KiB cap
		txn.Put([]byte(k), []byte(v))
		ts, err := txn.Commit(ctx, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = v
		lastTS = ts
	}
	if db.TabletStats()[0].Storage.Flushes == 0 {
		t.Fatal("expected flushes under a 2KiB memtable cap")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(diskConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	readTS := re.StrongReadTimestamp()
	if readTS < lastTS {
		t.Fatalf("strong read ts %d below last commit %d", readTS, lastTS)
	}
	for k, v := range want {
		got, _, ok, err := re.SnapshotGet(ctx, []byte(k), readTS)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || string(got) != v {
			t.Fatalf("key %s = %q (ok=%v), want %q", k, got, ok, v)
		}
	}
	if got := re.TabletStats()[0].Storage.Recoveries; got != 1 {
		t.Fatalf("recoveries = %d, want 1", got)
	}
}

// TestDurableCrashRestartMidCommit: the tablet.crash-restart fault fires
// after apply; the commit must still succeed and an immediate strong
// read must observe it (external consistency across recovery).
func TestDurableCrashRestartMidCommit(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	fault.Reset()
	defer fault.Reset()
	fault.SetSeed(7)

	db, err := Open(diskConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := fault.Enable(fault.Spec{Site: fault.TabletCrashRestart, Mode: fault.ModeCrash, Prob: 0.5}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		txn := db.Begin()
		k := []byte(fmt.Sprintf("doc-%02d", i))
		txn.Put(k, []byte(fmt.Sprintf("v%d", i)))
		if _, err := txn.Commit(ctx, 0, 0); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		got, _, ok, err := db.SnapshotGet(ctx, k, db.StrongReadTimestamp())
		if err != nil {
			t.Fatal(err)
		}
		if !ok || string(got) != fmt.Sprintf("v%d", i) {
			t.Fatalf("strong read after commit %d lost the write (ok=%v, got %q)", i, ok, got)
		}
	}
	if db.Stats().Recoveries == 0 {
		t.Fatal("crash-restart fault armed at prob 0.5 never recovered a tablet")
	}
}

// TestDurableWALFaultsRollForward: wal.append and wal.fsync faults
// during phase 2 roll forward — commits still succeed, recoveries
// happen, and nothing acknowledged is lost across a final restart.
func TestDurableWALFaultsRollForward(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	fault.Reset()
	defer fault.Reset()
	fault.SetSeed(11)

	db, err := Open(diskConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.Enable(fault.Spec{Site: fault.WALFsync, Mode: fault.ModeError, Prob: 0.2}); err != nil {
		t.Fatal(err)
	}
	if err := fault.Enable(fault.Spec{Site: fault.WALAppend, Mode: fault.ModeCrash, Prob: 0.1}); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for i := 0; i < 80; i++ {
		txn := db.Begin()
		k := fmt.Sprintf("row-%02d", i%20)
		v := fmt.Sprintf("val-%d", i)
		txn.Put([]byte(k), []byte(v))
		if _, err := txn.Commit(ctx, 0, 0); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		want[k] = v
	}
	fault.Reset()
	if db.Stats().Recoveries == 0 {
		t.Fatal("WAL faults at prob 0.2/0.1 over 80 commits never crashed the engine")
	}
	db.Close()

	re, err := Open(diskConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	readTS := re.StrongReadTimestamp()
	for k, v := range want {
		got, _, ok, err := re.SnapshotGet(ctx, []byte(k), readTS)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || string(got) != v {
			t.Fatalf("key %s = %q (ok=%v), want %q after restart", k, got, ok, v)
		}
	}
}

// TestDurableSplitMergeSurvivesRestart: splits and merges persist their
// reshaping; a restart recovers the same multi-tablet layout and data.
func TestDurableSplitMergeSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	fac, err := storage.NewDiskFactory(dir, storage.Options{MemtableCap: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(Config{
		Clock:         truetime.NewSystem(10 * time.Microsecond),
		Storage:       fac,
		MaxTabletRows: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		txn := db.Begin()
		txn.Put([]byte(fmt.Sprintf("k-%04d", i)), []byte(fmt.Sprintf("v%d", i)))
		if _, err := txn.Commit(ctx, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if db.TabletCount() < 2 {
		t.Fatalf("expected splits with MaxTabletRows=40, have %d tablets", db.TabletCount())
	}
	splitTablets := db.TabletCount()
	db.Close()

	fac2, err := storage.NewDiskFactory(dir, storage.Options{MemtableCap: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	re, err := Open(Config{
		Clock:   truetime.NewSystem(10 * time.Microsecond),
		Storage: fac2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.TabletCount() != splitTablets {
		t.Fatalf("recovered %d tablets, want %d", re.TabletCount(), splitTablets)
	}
	readTS := re.StrongReadTimestamp()
	n := 0
	err = re.SnapshotScan(ctx, nil, nil, readTS, false, func(r ScanRow) bool {
		n++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 120 {
		t.Fatalf("scanned %d rows after restart, want 120", n)
	}
	for i := 0; i < 120; i += 17 {
		k := []byte(fmt.Sprintf("k-%04d", i))
		got, _, ok, err := re.SnapshotGet(ctx, k, readTS)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || string(got) != fmt.Sprintf("v%d", i) {
			t.Fatalf("key %s lost across split+restart (ok=%v, got %q)", k, ok, got)
		}
	}
}

// TestStaleTabletReadAfterMerge: a reader that resolved a tablet just
// before a cold merge retired it must re-resolve through the DB rather
// than read the absorbed tablet — on the disk engine the tablet's store
// is closed and its directory destroyed, so a stale read there would
// miss keys that the absorbing neighbor still serves.
func TestStaleTabletReadAfterMerge(t *testing.T) {
	run := func(t *testing.T, cfg Config) {
		cfg.MaxTabletRows = 10
		db, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		const n = 30
		for i := 0; i < n; i++ {
			put(t, db, fmt.Sprintf("key-%04d", i), "v")
		}
		if db.TabletCount() < 2 {
			t.Fatal("expected splits")
		}
		// Hold a stale reference to the rightmost tablet, as a reader
		// that resolved it just before the merge would.
		db.mu.RLock()
		stale := db.tablets[len(db.tablets)-1]
		db.mu.RUnlock()
		key := append([]byte(nil), stale.start...)

		// Cool every tablet and run the opportunistic split/merge pass:
		// the whole key space merges back into one tablet.
		db.mu.RLock()
		for _, tab := range db.tablets {
			tab.mu.Lock()
			tab.load = 0
			tab.mu.Unlock()
		}
		db.mu.RUnlock()
		db.maybeSplit()
		if got := db.TabletCount(); got != 1 {
			t.Fatalf("TabletCount = %d after cold merge, want 1", got)
		}
		if !stale.isRetired() {
			t.Fatal("absorbed tablet not marked retired")
		}
		if stale.ownsKey(key) {
			t.Fatal("retired tablet still claims ownership of its old start key")
		}
		// Both point-read paths re-resolve to the absorbing tablet.
		ctx := context.Background()
		v, _, ok, err := db.SnapshotGet(ctx, key, db.StrongReadTimestamp())
		if err != nil || !ok || string(v) != "v" {
			t.Fatalf("SnapshotGet(%q) = %q, %v, %v; want v", key, v, ok, err)
		}
		if row := []LockedRow{{Key: key}}; db.readOwnedBatch(ctx, row, truetime.Max) != nil || !row[0].OK {
			t.Fatalf("readOwnedBatch(%q) = %+v; want hit", key, row[0])
		}
		// Scans revalidate ownership too: a full-range scan through a
		// retired tablet restarts against the current owners.
		count := 0
		more, valid, _, err := stale.scanAt(ctx, nil, nil, truetime.Max, func(ScanRow) bool {
			count++
			return true
		})
		if err != nil || valid || !more || count != 0 {
			t.Fatalf("stale scanAt = (more=%v valid=%v count=%d), want invalid with no rows", more, valid, count)
		}
		count = 0
		if err := db.SnapshotScan(ctx, nil, nil, db.StrongReadTimestamp(), false, func(ScanRow) bool {
			count++
			return true
		}); err != nil || count != n {
			t.Fatalf("scan count = %d, %v; want %d", count, err, n)
		}
	}
	t.Run("mem", func(t *testing.T) {
		run(t, Config{Clock: truetime.NewSystem(10 * time.Microsecond)})
	})
	t.Run("disk", func(t *testing.T) {
		run(t, diskConfig(t, t.TempDir()))
	})
}

// failingSetBounds fails SetBounds the way a real storage fault does:
// the engine crashes (Close marks it dead) and the call reports
// ErrCrashed. Everything else delegates.
type failingSetBounds struct {
	storage.Engine
}

func (f *failingSetBounds) SetBounds(start, end []byte) error {
	f.Engine.Close()
	return storage.ErrCrashed
}

// TestSplitSourceFailureKeepsCommissionedTarget: once a split's target
// is commissioned it is the sole durable owner of [mid, end), so a
// failure narrowing the source must NOT destroy it (that would
// permanently drop those keys). The split completes: every key stays
// readable (the crashed source recovers on demand, its in-memory bounds
// clamping serving to [start, mid)), and a restart resolves the durable
// bound overlap in favor of the target.
func TestSplitSourceFailureKeepsCommissionedTarget(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	db, err := Open(diskConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		put(t, db, fmt.Sprintf("k-%04d", i), fmt.Sprintf("v%d", i))
	}

	db.mu.Lock()
	tab := db.tablets[0]
	tab.mu.Lock()
	e := tab.store
	mid, ok := e.KeyAt(e.Stats().Keys / 2)
	if !ok {
		tab.mu.Unlock()
		db.mu.Unlock()
		t.Fatal("no split point")
	}
	mid = append([]byte(nil), mid...)
	right := db.splitLocked(tab, &failingSetBounds{Engine: e}, mid)
	if right != nil {
		db.tablets = append(db.tablets, nil)
		copy(db.tablets[2:], db.tablets[1:])
		db.tablets[1] = right
	}
	tab.mu.Unlock()
	db.mu.Unlock()
	if right == nil {
		t.Fatal("split abandoned its commissioned target after a source SetBounds failure")
	}

	readTS := db.StrongReadTimestamp()
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("k-%04d", i))
		got, _, ok, err := db.SnapshotGet(ctx, k, readTS)
		if err != nil || !ok || string(got) != fmt.Sprintf("v%d", i) {
			t.Fatalf("key %s lost after interrupted split (ok=%v got=%q err=%v)", k, ok, got, err)
		}
	}
	db.Close()

	re, err := Open(diskConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.TabletCount() != 2 {
		t.Fatalf("recovered %d tablets, want 2", re.TabletCount())
	}
	readTS = re.StrongReadTimestamp()
	count := 0
	if err := re.SnapshotScan(ctx, nil, nil, readTS, false, func(r ScanRow) bool {
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("scanned %d rows after restart, want %d", count, n)
	}
}

// TestCommitInterruptedPhase2RollsForward: when phase 2 exhausts its
// retries with at least one participant's WAL already holding the
// batch, the commit must not abort into a partially applied, visible
// state. Instead the transaction keeps its locks and safe-time bounds
// while a background roll-forward completes — readers block rather than
// observe partial state, and once storage heals both writes appear
// together.
func TestCommitInterruptedPhase2RollsForward(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	fault.Reset()
	defer fault.Reset()
	fault.SetSeed(5)

	cfg := diskConfig(t, dir)
	cfg.MaxTabletRows = 10
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const n = 40
	for i := 0; i < n; i++ {
		put(t, db, fmt.Sprintf("k-%04d", i), "seed")
	}
	if db.TabletCount() < 2 {
		t.Fatal("expected splits with MaxTabletRows=10")
	}
	k1, k2 := []byte("k-0000"), []byte(fmt.Sprintf("k-%04d", n-1))
	if db.TabletIndex(k1) == db.TabletIndex(k2) {
		t.Fatal("test keys landed on the same tablet")
	}

	// Every fsync fails: applyRollForward exhausts its attempts, with
	// the batch already replayable from at least one participant's WAL.
	if err := fault.Enable(fault.Spec{Site: fault.WALFsync, Mode: fault.ModeError, Prob: 1}); err != nil {
		t.Fatal(err)
	}
	txn := db.Begin()
	txn.Put(k1, []byte("rolled"))
	txn.Put(k2, []byte("forward"))
	if _, err := txn.Commit(ctx, 0, 0); err == nil {
		t.Fatal("commit must report the outcome unknown while every fsync fails")
	}
	if got := db.Stats().RollForwards; got != 1 {
		t.Fatalf("RollForwards = %d, want 1", got)
	}
	// Partial state is pinned out of view: a strong read of a written
	// key blocks on safe time (ctx expiry) instead of observing it.
	rctx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
	_, _, _, err = db.SnapshotGet(rctx, k1, db.StrongReadTimestamp())
	cancel()
	if err == nil {
		t.Fatal("snapshot read observed state of a commit still rolling forward")
	}

	// Storage heals; the background roll-forward finishes and releases
	// the locks, making both writes visible together.
	fault.Reset()
	deadline := time.Now().Add(10 * time.Second)
	for {
		rctx, cancel := context.WithTimeout(ctx, time.Second)
		v, _, ok, err := db.SnapshotGet(rctx, k1, db.StrongReadTimestamp())
		cancel()
		if err == nil && ok && string(v) == "rolled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("roll-forward never completed (ok=%v v=%q err=%v)", ok, v, err)
		}
	}
	// Locks release only after every participant applied, so the other
	// participant's write must be visible too — atomicity held.
	v2, _, ok, err := db.SnapshotGet(ctx, k2, db.StrongReadTimestamp())
	if err != nil || !ok || string(v2) != "forward" {
		t.Fatalf("second participant's write missing after roll-forward (ok=%v v=%q err=%v)", ok, v2, err)
	}
}

// downFactory opens one engine and then refuses every re-open, and its
// engine can be switched to report Crashed(): a tablet server that died
// and is not respawned.
type downFactory struct {
	storage.MemFactory
	opened bool
	down   atomic.Bool
}

type downEngine struct {
	storage.Engine
	fac *downFactory
}

func (e *downEngine) Crashed() bool { return e.fac.down.Load() }

func (f *downFactory) Open(id uint64, start, end []byte) (storage.Engine, error) {
	if f.opened {
		return nil, storage.ErrCrashed
	}
	f.opened = true
	return &downEngine{Engine: storage.NewMem(), fac: f}, nil
}

// TestCrashRetryHonoursDeadline: with the engine crashed and recovery
// failing every time, a read holding a deadline returns DeadlineExceeded
// instead of spinning on recover-and-sleep forever.
func TestCrashRetryHonoursDeadline(t *testing.T) {
	fac := &downFactory{}
	db, err := Open(Config{Clock: truetime.NewSystem(10 * time.Microsecond), Storage: fac})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	put(t, db, "k", "v")
	ts := db.StrongReadTimestamp()
	fac.down.Store(true)

	for name, read := range map[string]func(context.Context) error{
		"SnapshotGet": func(ctx context.Context) error {
			_, _, _, err := db.SnapshotGet(ctx, []byte("k"), ts)
			return err
		},
		"SnapshotScan": func(ctx context.Context) error {
			return db.SnapshotScan(ctx, nil, nil, ts, false, func(ScanRow) bool { return true })
		},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		done := make(chan error, 1)
		go func() { done <- read(ctx) }()
		select {
		case err := <-done:
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("%s on a dead tablet = %v, want DeadlineExceeded", name, err)
			}
		case <-time.After(time.Second):
			t.Errorf("%s on a dead tablet ignores its 50ms deadline", name)
		}
		cancel()
	}
	fac.down.Store(false) // let Close release the engine
}
