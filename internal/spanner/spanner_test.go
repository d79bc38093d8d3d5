package spanner

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"firestore/internal/truetime"
)

func testDB(t *testing.T) *DB {
	t.Helper()
	db := New(Config{Clock: truetime.NewSystem(10 * time.Microsecond)})
	db.lockTimeout = 200 * time.Millisecond
	return db
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

// TestLockReadTakesTheSetOnce: LockRead locks a key named twice once, in
// the stronger mode, reads every row it has not read in one pass, and
// fills each row in place — a row the transaction wrote reads back as
// written, and Commit will lock it.
func TestLockReadTakesTheSetOnce(t *testing.T) {
	db := testDB(t)
	ctx := context.Background()
	put(t, db, "a", "1")
	put(t, db, "z", "26")
	txn := db.Begin()
	txn.Put([]byte("m"), []byte("mine"))
	rows := []LockedRow{{Key: []byte("z")}, {Key: []byte("a")}, {Key: []byte("m")}, {Key: []byte("a"), Exclusive: true}, {Key: []byte("q")}}
	reads := db.Stats().Reads
	if err := txn.LockRead(ctx, rows); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range rows {
		got = append(got, fmt.Sprintf("%s=%s/%v", r.Key, r.Value, r.OK))
	}
	if want := []string{"z=26/true", "a=1/true", "m=mine/true", "a=1/true", "q=/false"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
	if n := db.Stats().Reads - reads; n != 3 {
		t.Fatalf("LockRead read %d rows, want 3 (a, q, z)", n)
	}
	held := map[string]lockMode{}
	for _, e := range txn.held {
		held[string(e.holders[e.index(txn)].key)] = e.mode
	}
	if want := map[string]lockMode{"a": lockExclusive, "q": lockShared, "z": lockShared}; len(txn.held) != len(want) || !reflect.DeepEqual(held, want) {
		t.Fatalf("held %v (%d entries), want %v, each once", held, len(txn.held), want)
	}
	// A later read of a locked row is served from the cache.
	if v, _, ok, err := txn.GetVersioned(ctx, []byte("a"), true); err != nil || !ok || string(v) != "1" || db.Stats().Reads-reads != 3 {
		t.Fatalf("cached read = %q, %v, %v after %d reads", v, ok, err, db.Stats().Reads-reads)
	}
	txn.Abort()
}

// TestLockReadUpgradesOnForUpdate: a row LockRead cached under a shared
// lock answers a read for update only once the lock is upgraded, which
// waits for every other shared holder.
func TestLockReadUpgradesOnForUpdate(t *testing.T) {
	db := testDB(t)
	ctx := context.Background()
	put(t, db, "k", "v")
	a, b := db.Begin(), db.Begin()
	for _, txn := range []*Txn{a, b} {
		rows := []LockedRow{{Key: []byte("k")}}
		if err := txn.LockRead(ctx, rows); err != nil || string(rows[0].Value) != "v" {
			t.Fatalf("shared LockRead = %q, %v", rows[0].Value, err)
		}
	}
	short, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if _, _, err := a.Get(short, []byte("k"), true); err == nil {
		t.Fatal("read for update answered from the cache while another transaction shares the row")
	}
	b.Abort()
	if v, _, err := a.Get(ctx, []byte("k"), true); err != nil || string(v) != "v" {
		t.Fatalf("read for update once alone = %q, %v", v, err)
	}
	c := db.Begin()
	if _, err := c.TryGet(ctx, []byte("k")); !errors.Is(err, ErrAborted) {
		t.Fatalf("shared read of an exclusively held row = %v, want ErrAborted", err)
	}
	c.Abort()
	a.Abort()
}

// TestSafeTimeWait: a snapshot read blocked on a prepared write waits on
// the tablet's wake channel — no goroutine or timer per wait — and
// returns as soon as the transaction finishes or the read is cancelled.
func TestSafeTimeWait(t *testing.T) {
	db := testDB(t)
	key := []byte("k")
	put(t, db, "k", "v0")
	for _, end := range []string{"finish", "cancel"} {
		// A transaction between prepare and apply, as Commit leaves it.
		txn := db.Begin()
		txn.Put(key, []byte("v1"))
		tab := db.tabletFor(key)
		tab.prepare(txn, db.clock.Now().Earliest)
		ctx, cancel := context.WithCancel(context.Background())
		base := runtime.NumGoroutine()
		done := make(chan error, 1)
		go func() {
			_, _, _, err := db.SnapshotGet(ctx, key, db.StrongReadTimestamp())
			done <- err
		}()
		for i := 0; i < 20; i++ {
			time.Sleep(time.Millisecond)
			select {
			case err := <-done:
				t.Fatalf("%s: read returned %v past a prepared write", end, err)
			default:
			}
			if n := runtime.NumGoroutine(); n > base+1 {
				t.Fatalf("%s: %d goroutines during the wait, want at most %d (the reader's)", end, n, base+1)
			}
		}
		start := time.Now()
		want := error(nil)
		if end == "finish" {
			tab.finish(txn)
		} else {
			cancel()
			want = context.Canceled
		}
		select {
		case err := <-done:
			if took := time.Since(start); !errors.Is(err, want) || took > 50*time.Millisecond {
				t.Fatalf("%s: read returned %v after %v, want %v in < 50ms", end, err, took, want)
			}
		case <-time.After(time.Second):
			t.Fatalf("%s: read still blocked", end)
		}
		cancel()
		tab.finish(txn)
		txn.Abort()
	}
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

// The model is asked once per commit with the commit's shape, and the
// delay it returns is paid before the commit is acknowledged.
func TestCommitLatencyModel(t *testing.T) {
	delay := 5 * time.Millisecond
	var shapes [][3]int
	db := New(Config{
		Clock: truetime.NewSystem(10 * time.Microsecond),
		CommitDelay: func(participants, bytes, rows int) time.Duration {
			shapes = append(shapes, [3]int{participants, bytes, rows})
			return delay
		},
	})
	start := time.Now()
	txn := db.Begin()
	txn.Put([]byte("k1"), []byte("value"))
	txn.Put([]byte("k2"), []byte("v"))
	mustCommit(t, txn)
	if elapsed := time.Since(start); elapsed < delay {
		t.Fatalf("commit took %v, want >= %v", elapsed, delay)
	}
	if want := [][3]int{{1, 10, 2}}; !reflect.DeepEqual(shapes, want) {
		t.Fatalf("CommitDelay asked with %v, want %v", shapes, want)
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
		CommitDelay: func(int, int, int) time.Duration { // runs between prepare and apply
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

// TestSafeTimeIsPerRangeForScans: a scan waits only on the prepared
// transactions that write inside its range. With a commit of a and c held
// prepared, a scan of [b, b\x00) returns at once, and scans that cover a
// or c wait for the commit.
func TestSafeTimeIsPerRangeForScans(t *testing.T) {
	prepared, release := make(chan struct{}), make(chan struct{})
	hold := false
	db := New(Config{
		Clock: truetime.NewSystem(10 * time.Microsecond),
		CommitDelay: func(int, int, int) time.Duration { // runs between prepare and apply
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
	scan := func(ctx context.Context, lo, hi string) (rows []string, err error) {
		var end []byte
		if hi != "" {
			end = []byte(hi)
		}
		err = db.SnapshotScan(ctx, []byte(lo), end, ts, false, func(r ScanRow) bool {
			rows = append(rows, string(r.Key)+"="+string(r.Value))
			return true
		})
		return rows, err
	}
	bctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if rows, err := scan(bctx, "b", "b\x00"); err != nil || len(rows) != 1 || rows[0] != "b=b" {
		t.Fatalf("scan of [b, b\\x00) beside a prepared commit of a and c: %q, %v", rows, err)
	}
	blocked := make(chan string, 2)
	for _, r := range [][2]string{{"a", "b"}, {"b", ""}} {
		go func() {
			rows, _ := scan(ctx, r[0], r[1])
			blocked <- strings.Join(rows, " ")
		}()
	}
	select {
	case rows := <-blocked:
		t.Fatalf("a scan over a prepared write returned %q before the commit applied", rows)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
	got := []string{<-blocked, <-blocked}
	slices.Sort(got)
	if got[0] != "a=new" || got[1] != "b=b c=new" {
		t.Fatalf("after the commit, the scans of [a, b) and [b, ∞) returned %q", got)
	}
}

// TestSnapWaitsCounted: Stats.SnapWaits counts each snapshot read and
// scan that waited behind a prepared commit, once, and no other read.
func TestSnapWaitsCounted(t *testing.T) {
	db := testDB(t)
	ctx := context.Background()
	key := []byte("k")
	put(t, db, "k", "v0")
	if _, _, _, err := db.SnapshotGet(ctx, key, db.StrongReadTimestamp()); err != nil {
		t.Fatal(err)
	}
	for want, read := range []func(truetime.Timestamp) error{
		func(ts truetime.Timestamp) error { _, _, _, err := db.SnapshotGet(ctx, key, ts); return err },
		func(ts truetime.Timestamp) error {
			return db.SnapshotScan(ctx, nil, nil, ts, false, func(ScanRow) bool { return true })
		},
	} {
		if got := db.Stats().SnapWaits; got != int64(want) {
			t.Fatalf("SnapWaits = %d before read %d, want %d", got, want, want)
		}
		txn := db.Begin()
		txn.Put(key, []byte("v1"))
		tab := db.tabletFor(key)
		tab.prepare(txn, db.clock.Now().Earliest)
		done := make(chan error, 1)
		go func() { done <- read(db.StrongReadTimestamp()) }()
		for blocked := false; !blocked; time.Sleep(time.Millisecond) {
			tab.mu.Lock()
			blocked = tab.finished != nil // the reader's wake channel
			tab.mu.Unlock()
		}
		tab.finish(txn)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := db.Stats().SnapWaits; got != 2 {
		t.Fatalf("SnapWaits = %d after a read and a scan waited, want 2", got)
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
