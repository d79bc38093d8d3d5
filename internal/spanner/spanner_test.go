package spanner

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"firestore/internal/truetime"
)

func testDB(t *testing.T) *DB {
	t.Helper()
	return New(Config{
		Clock:       truetime.NewSystem(10 * time.Microsecond),
		LockTimeout: 200 * time.Millisecond,
	})
}

func mustCommit(t *testing.T, txn *Txn) truetime.Timestamp {
	t.Helper()
	ts, err := txn.Commit(context.Background(), 0, 0)
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	return ts
}

func put(t *testing.T, db *DB, key, value string) truetime.Timestamp {
	t.Helper()
	txn := db.Begin()
	txn.Put([]byte(key), []byte(value))
	return mustCommit(t, txn)
}

func TestPutGetRoundTrip(t *testing.T) {
	db := testDB(t)
	ts := put(t, db, "k1", "v1")
	v, _, ok, err := db.SnapshotGet(context.Background(), []byte("k1"), ts)
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("SnapshotGet = %q, %v, %v", v, ok, err)
	}
	// Before the commit timestamp the row is invisible.
	_, _, ok, err = db.SnapshotGet(context.Background(), []byte("k1"), ts-1)
	if err != nil || ok {
		t.Fatalf("read before commit ts: ok=%v err=%v", ok, err)
	}
}

func TestDeleteVisibility(t *testing.T) {
	db := testDB(t)
	ts1 := put(t, db, "k", "v")
	txn := db.Begin()
	txn.Delete([]byte("k"))
	ts2 := mustCommit(t, txn)
	if _, _, ok, _ := db.SnapshotGet(context.Background(), []byte("k"), ts1); !ok {
		t.Error("old snapshot lost the row")
	}
	if _, _, ok, _ := db.SnapshotGet(context.Background(), []byte("k"), ts2); ok {
		t.Error("deleted row still visible")
	}
}

func TestTxnReadsOwnWrites(t *testing.T) {
	db := testDB(t)
	put(t, db, "k", "old")
	txn := db.Begin()
	txn.Put([]byte("k"), []byte("new"))
	v, ok, err := txn.Get(context.Background(), []byte("k"), false)
	if err != nil || !ok || string(v) != "new" {
		t.Fatalf("Get own write = %q, %v, %v", v, ok, err)
	}
	txn.Delete([]byte("k"))
	if _, ok, _ := txn.Get(context.Background(), []byte("k"), false); ok {
		t.Fatal("own delete not visible")
	}
	txn.Abort()
	// Abort must leave the old value.
	ts := db.StrongReadTimestamp()
	v, _, ok, _ = db.SnapshotGet(context.Background(), []byte("k"), ts)
	if !ok || string(v) != "old" {
		t.Fatalf("after abort = %q, %v", v, ok)
	}
}

func TestCommitTimestampsMonotonicPerKey(t *testing.T) {
	db := testDB(t)
	var last truetime.Timestamp
	for i := 0; i < 20; i++ {
		ts := put(t, db, "k", fmt.Sprint(i))
		if ts <= last {
			t.Fatalf("commit ts not increasing: %d then %d", last, ts)
		}
		last = ts
	}
}

func TestCommitWindow(t *testing.T) {
	db := testDB(t)
	txn := db.Begin()
	txn.Put([]byte("k"), []byte("v"))
	// A max timestamp in the past is unsatisfiable.
	_, err := txn.Commit(context.Background(), 0, 1)
	if !errors.Is(err, ErrCommitWindow) {
		t.Fatalf("Commit = %v, want ErrCommitWindow", err)
	}
	// The aborted write must not be visible.
	if _, _, ok, _ := db.SnapshotGet(context.Background(), []byte("k"), db.StrongReadTimestamp()); ok {
		t.Fatal("aborted write visible")
	}
}

func TestCommitMinTimestampRespected(t *testing.T) {
	db := testDB(t)
	min := db.StrongReadTimestamp() + truetime.Timestamp(time.Millisecond)
	txn := db.Begin()
	txn.Put([]byte("k"), []byte("v"))
	ts, err := txn.Commit(context.Background(), min, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ts < min {
		t.Fatalf("commit ts %d below min %d", ts, min)
	}
}

func TestTxnDoneErrors(t *testing.T) {
	db := testDB(t)
	txn := db.Begin()
	txn.Put([]byte("k"), []byte("v"))
	mustCommit(t, txn)
	if _, err := txn.Commit(context.Background(), 0, 0); !errors.Is(err, ErrTxnDone) {
		t.Errorf("second Commit = %v", err)
	}
	if _, _, err := txn.Get(context.Background(), []byte("k"), false); !errors.Is(err, ErrTxnDone) {
		t.Errorf("Get after done = %v", err)
	}
}

func TestWriteWriteConflictTimesOut(t *testing.T) {
	db := testDB(t)
	put(t, db, "k", "v0")
	a := db.Begin()
	if _, _, err := a.Get(context.Background(), []byte("k"), true); err != nil {
		t.Fatal(err)
	}
	b := db.Begin()
	b.Put([]byte("k"), []byte("fromB"))
	_, err := b.Commit(context.Background(), 0, 0)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("conflicting commit = %v, want ErrAborted", err)
	}
	a.Put([]byte("k"), []byte("fromA"))
	mustCommit(t, a)
	v, _, _, _ := db.SnapshotGet(context.Background(), []byte("k"), db.StrongReadTimestamp())
	if string(v) != "fromA" {
		t.Fatalf("final value %q", v)
	}
}

func TestSharedLocksAllowConcurrentReaders(t *testing.T) {
	db := testDB(t)
	put(t, db, "k", "v")
	a, b := db.Begin(), db.Begin()
	if _, _, err := a.Get(context.Background(), []byte("k"), false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Get(context.Background(), []byte("k"), false); err != nil {
		t.Fatal(err)
	}
	a.Abort()
	b.Abort()
}

func TestDeadlockResolvedByAbort(t *testing.T) {
	db := testDB(t)
	put(t, db, "x", "1")
	put(t, db, "y", "1")
	ctx := context.Background()
	a, b := db.Begin(), db.Begin()
	if _, _, err := a.Get(ctx, []byte("x"), true); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Get(ctx, []byte("y"), true); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); _, _, errs[0] = a.Get(ctx, []byte("y"), true) }()
	go func() { defer wg.Done(); _, _, errs[1] = b.Get(ctx, []byte("x"), true) }()
	wg.Wait()
	if errs[0] == nil && errs[1] == nil {
		t.Fatal("deadlock not detected: both lock acquisitions succeeded")
	}
	a.Abort()
	b.Abort()
}

func TestScanOrderAndRange(t *testing.T) {
	db := testDB(t)
	for i := 0; i < 50; i++ {
		put(t, db, fmt.Sprintf("k%02d", i), fmt.Sprint(i))
	}
	ts := db.StrongReadTimestamp()
	var keys []string
	err := db.SnapshotScan(context.Background(), []byte("k10"), []byte("k20"), ts, false, func(r ScanRow) bool {
		keys = append(keys, string(r.Key))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 10 || keys[0] != "k10" || keys[9] != "k19" {
		t.Fatalf("scan keys = %v", keys)
	}
	// Reverse scan.
	keys = nil
	err = db.SnapshotScan(context.Background(), []byte("k10"), []byte("k20"), ts, true, func(r ScanRow) bool {
		keys = append(keys, string(r.Key))
		return true
	})
	if err != nil || len(keys) != 10 || keys[0] != "k19" || keys[9] != "k10" {
		t.Fatalf("reverse scan = %v, %v", keys, err)
	}
}

func TestSnapshotIsolationUnderConcurrentWrites(t *testing.T) {
	// An invariant-preserving pair of rows: x + y == 100 in every commit.
	// Snapshot reads at any timestamp must observe the invariant.
	db := testDB(t)
	ctx := context.Background()
	txn := db.Begin()
	txn.Put([]byte("x"), []byte{50})
	txn.Put([]byte("y"), []byte{50})
	mustCommit(t, txn)

	stop := make(chan struct{})
	var writerErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for {
			select {
			case <-stop:
				return
			default:
			}
			txn := db.Begin()
			xv, _, err := txn.Get(ctx, []byte("x"), true)
			if err != nil {
				txn.Abort()
				continue
			}
			delta := byte(rng.Intn(10))
			if xv[0] < delta {
				delta = xv[0]
			}
			txn.Put([]byte("x"), []byte{xv[0] - delta})
			yv, _, err := txn.Get(ctx, []byte("y"), true)
			if err != nil {
				txn.Abort()
				continue
			}
			txn.Put([]byte("y"), []byte{yv[0] + delta})
			if _, err := txn.Commit(ctx, 0, 0); err != nil && !errors.Is(err, ErrAborted) {
				writerErr = err
				return
			}
		}
	}()

	for i := 0; i < 300; i++ {
		ts := db.StrongReadTimestamp()
		xv, _, okx, err := db.SnapshotGet(ctx, []byte("x"), ts)
		if err != nil {
			t.Fatal(err)
		}
		yv, _, oky, err := db.SnapshotGet(ctx, []byte("y"), ts)
		if err != nil {
			t.Fatal(err)
		}
		if !okx || !oky {
			t.Fatal("rows missing")
		}
		if int(xv[0])+int(yv[0]) != 100 {
			t.Fatalf("invariant broken at ts %d: x=%d y=%d", ts, xv[0], yv[0])
		}
	}
	close(stop)
	wg.Wait()
	if writerErr != nil {
		t.Fatal(writerErr)
	}
}

func TestSplitAndRouting(t *testing.T) {
	db := New(Config{
		Clock:         truetime.NewSystem(10 * time.Microsecond),
		MaxTabletRows: 100,
	})
	for i := 0; i < 1000; i++ {
		put(t, db, fmt.Sprintf("key-%04d", i), fmt.Sprint(i))
	}
	if db.TabletCount() < 4 {
		t.Fatalf("TabletCount = %d, want several after 1000 rows with max 100", db.TabletCount())
	}
	// Every row must still be readable and scans must see all rows in
	// order across tablet boundaries.
	ts := db.StrongReadTimestamp()
	count := 0
	prev := ""
	err := db.SnapshotScan(context.Background(), nil, nil, ts, false, func(r ScanRow) bool {
		if string(r.Key) <= prev {
			t.Fatalf("scan out of order across tablets: %q after %q", r.Key, prev)
		}
		prev = string(r.Key)
		count++
		return true
	})
	if err != nil || count != 1000 {
		t.Fatalf("scan count = %d, %v", count, err)
	}
	if db.Stats().Splits == 0 {
		t.Error("no splits recorded")
	}
}

func TestCrossTabletTransactionAtomicity(t *testing.T) {
	db := New(Config{
		Clock:         truetime.NewSystem(10 * time.Microsecond),
		MaxTabletRows: 10,
	})
	for i := 0; i < 100; i++ {
		put(t, db, fmt.Sprintf("key-%04d", i), "init")
	}
	if db.TabletCount() < 2 {
		t.Fatal("expected multiple tablets")
	}
	// Write to keys at both extremes (different tablets) atomically.
	txn := db.Begin()
	txn.Put([]byte("key-0000"), []byte("both"))
	txn.Put([]byte("key-0099"), []byte("both"))
	ts := mustCommit(t, txn)
	for _, k := range []string{"key-0000", "key-0099"} {
		v, _, ok, _ := db.SnapshotGet(context.Background(), []byte(k), ts)
		if !ok || string(v) != "both" {
			t.Fatalf("%s = %q, %v", k, v, ok)
		}
		if v, _, _, _ := db.SnapshotGet(context.Background(), []byte(k), ts-1); string(v) == "both" {
			t.Fatalf("%s visible before commit ts", k)
		}
	}
}

func TestTransactionalMessages(t *testing.T) {
	db := testDB(t)
	ch := db.Subscribe("triggers")
	txn := db.Begin()
	txn.Put([]byte("k"), []byte("v"))
	txn.Message("triggers", []byte("changed k"))
	ts := mustCommit(t, txn)
	select {
	case m := <-ch:
		if string(m.Payload) != "changed k" || m.CommitTS != ts {
			t.Fatalf("message = %q @%d, want @%d", m.Payload, m.CommitTS, ts)
		}
	case <-time.After(time.Second):
		t.Fatal("message not delivered")
	}
	// Aborted transactions must not deliver.
	txn2 := db.Begin()
	txn2.Message("triggers", []byte("never"))
	txn2.Abort()
	select {
	case m := <-ch:
		t.Fatalf("aborted txn delivered %q", m.Payload)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestCommitLatencyModel(t *testing.T) {
	delay := 5 * time.Millisecond
	db := New(Config{
		Clock:         truetime.NewSystem(10 * time.Microsecond),
		CommitLatency: func() time.Duration { return delay },
	})
	start := time.Now()
	put(t, db, "k", "v")
	if elapsed := time.Since(start); elapsed < delay {
		t.Fatalf("commit took %v, want >= %v", elapsed, delay)
	}
}

func TestLatenciesSampler(t *testing.T) {
	f := Latencies(time.Millisecond, time.Millisecond, 1)
	for i := 0; i < 100; i++ {
		d := f()
		if d < time.Millisecond || d >= 2*time.Millisecond {
			t.Fatalf("sample %v out of range", d)
		}
	}
	g := Latencies(time.Millisecond, 0, 1)
	if g() != time.Millisecond {
		t.Fatal("zero jitter should return base")
	}
}

func TestMergeColdTablets(t *testing.T) {
	db := New(Config{
		Clock:         truetime.NewSystem(10 * time.Microsecond),
		MaxTabletRows: 10,
	})
	for i := 0; i < 60; i++ {
		put(t, db, fmt.Sprintf("key-%04d", i), "v")
	}
	before := db.TabletCount()
	if before < 2 {
		t.Fatal("expected splits")
	}
	// Delete most rows, wait for the load window to expire, then nudge
	// the engine: merges happen opportunistically after commits.
	for i := 0; i < 59; i++ {
		txn := db.Begin()
		txn.Delete([]byte(fmt.Sprintf("key-%04d", i)))
		mustCommit(t, txn)
	}
	time.Sleep(loadWindow + 100*time.Millisecond)
	put(t, db, "zzz", "nudge")
	time.Sleep(50 * time.Millisecond)
	put(t, db, "zzz2", "nudge")
	if after := db.TabletCount(); after >= before {
		t.Logf("tablets before=%d after=%d (merge is best-effort)", before, after)
	}
	if db.Stats().Merges == 0 {
		t.Skip("no merge observed in window; merging is load-dependent")
	}
}

func TestConcurrentCommitsDisjointKeys(t *testing.T) {
	db := testDB(t)
	const workers = 8
	const perWorker = 50
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				txn := db.Begin()
				txn.Put([]byte(fmt.Sprintf("w%d-%d", w, i)), []byte("v"))
				if _, err := txn.Commit(context.Background(), 0, 0); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	ts := db.StrongReadTimestamp()
	count := 0
	db.SnapshotScan(context.Background(), nil, nil, ts, false, func(ScanRow) bool {
		count++
		return true
	})
	if count != workers*perWorker {
		t.Fatalf("row count = %d, want %d", count, workers*perWorker)
	}
}

func TestSnapshotGetContextCancel(t *testing.T) {
	db := testDB(t)
	put(t, db, "k", "v")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Far-future timestamp would block on safe time only if a prepare is
	// pending; with none pending it should succeed even with cancelled
	// ctx or return promptly.
	_, _, _, err := db.SnapshotGet(ctx, []byte("k"), db.StrongReadTimestamp())
	_ = err // either outcome is fine; the call must not hang
}

// A commit held inside its prepared window blocks point reads of the rows
// it writes and range reads of its tablet, and no other point read.
func TestSafeTimeIsPerKeyForPointReads(t *testing.T) {
	prepared, release := make(chan struct{}), make(chan struct{})
	hold := false
	db := New(Config{
		Clock: truetime.NewSystem(10 * time.Microsecond),
		CommitLatency: func() time.Duration { // runs between prepare and apply
			if hold {
				close(prepared)
				<-release
			}
			return 0
		},
	})
	ctx := context.Background()
	put(t, db, "a", "old")
	put(t, db, "b", "b")
	hold = true
	committed := make(chan error, 1)
	go func() {
		txn := db.Begin()
		txn.Put([]byte("a"), []byte("new"))
		txn.Put([]byte("c"), []byte("new"))
		_, err := txn.Commit(ctx, 0, 0)
		committed <- err
	}()
	<-prepared
	ts := db.StrongReadTimestamp()
	bctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if v, _, ok, err := db.SnapshotGet(bctx, []byte("b"), ts); err != nil || !ok || string(v) != "b" {
		t.Fatalf("read of an unwritten row: %q %v %v", v, ok, err)
	}
	got, scanned := make(chan string, 1), make(chan int, 1)
	go func() {
		v, _, _, _ := db.SnapshotGet(ctx, []byte("a"), ts)
		got <- string(v)
	}()
	go func() {
		n := 0
		db.SnapshotScan(ctx, nil, nil, ts, false, func(ScanRow) bool { n++; return true })
		scanned <- n
	}()
	select {
	case v := <-got:
		t.Fatalf("read of a prepared row returned %q before the commit applied", v)
	case n := <-scanned:
		t.Fatalf("scan returned %d rows before the commit applied", n)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
	if v, n := <-got, <-scanned; v != "new" || n != 3 {
		t.Fatalf("after the commit: read %q, scanned %d rows; want \"new\", 3", v, n)
	}
}

func TestStatsCounters(t *testing.T) {
	db := testDB(t)
	put(t, db, "k", "v")
	db.SnapshotGet(context.Background(), []byte("k"), db.StrongReadTimestamp())
	s := db.Stats()
	if s.Commits != 1 || s.Reads == 0 {
		t.Fatalf("stats = %+v", s)
	}
	txn := db.Begin()
	txn.Abort()
	if db.Stats().Aborts != 1 {
		t.Fatal("abort not counted")
	}
}

func BenchmarkCommitSingleRow(b *testing.B) {
	db := New(Config{Clock: truetime.NewSystem(time.Microsecond)})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		txn := db.Begin()
		txn.Put([]byte(fmt.Sprintf("k%d", i%1000)), []byte("v"))
		if _, err := txn.Commit(context.Background(), 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshotGet(b *testing.B) {
	db := New(Config{Clock: truetime.NewSystem(time.Microsecond)})
	for i := 0; i < 1000; i++ {
		txn := db.Begin()
		txn.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v"))
		txn.Commit(context.Background(), 0, 0)
	}
	ts := db.StrongReadTimestamp()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db.SnapshotGet(context.Background(), []byte(fmt.Sprintf("k%d", i%1000)), ts)
	}
}

// TestClosedDBReturnsErrClosed: shutdown legitimately races in-flight
// work (async flushers, background writers), so operations against a
// closed DB must fail with the canonical ErrClosed, never panic.
func TestClosedDBReturnsErrClosed(t *testing.T) {
	db := testDB(t)
	put(t, db, "a", "1")
	ts := db.StrongReadTimestamp()
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	ctx := context.Background()
	if _, _, _, err := db.SnapshotGet(ctx, []byte("a"), ts); !errors.Is(err, ErrClosed) {
		t.Errorf("SnapshotGet after Close: err = %v, want ErrClosed", err)
	}
	txn := db.Begin()
	if _, _, _, err := txn.GetVersioned(ctx, []byte("a"), false); !errors.Is(err, ErrClosed) {
		t.Errorf("GetVersioned after Close: err = %v, want ErrClosed", err)
	}
	txn.Abort()
	txn = db.Begin()
	txn.Put([]byte("b"), []byte("2"))
	if _, err := txn.Commit(ctx, 0, 0); !errors.Is(err, ErrClosed) {
		t.Errorf("Commit after Close: err = %v, want ErrClosed", err)
	}
}
