package spanner

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"

	"firestore/internal/storage"
	"firestore/internal/truetime"
)

// history is a migration test's oracle: every version each key took.
type history map[string][]storage.Version

func (h history) record(key string, v storage.Version) { h[key] = append(h[key], v) }

// check reads every key through db at each of its versions' timestamps
// and just before its first, and scans the whole key space at the newest.
func (h history) check(t *testing.T, db *DB, when string) {
	t.Helper()
	ctx := context.Background()
	var live []string
	for key, vs := range h {
		if _, _, ok, err := db.SnapshotGet(ctx, []byte(key), vs[0].TS-1); err != nil || ok {
			t.Fatalf("%s: %s before its first version: ok=%v err=%v, want absent", when, key, ok, err)
		}
		for _, v := range vs {
			got, vts, ok, err := db.SnapshotGet(ctx, []byte(key), v.TS)
			if err != nil || ok == v.Deleted || ok && (vts != v.TS || !bytes.Equal(got, v.Value)) {
				t.Fatalf("%s: %s@%d = %.40q, %d, %v, %v; want %.40q deleted=%v", when, key, v.TS, got, vts, ok, err, v.Value, v.Deleted)
			}
		}
		if !vs[len(vs)-1].Deleted {
			live = append(live, key)
		}
	}
	sort.Strings(live)
	var scanned []string
	if err := db.SnapshotScan(ctx, nil, nil, db.StrongReadTimestamp(), false, func(r ScanRow) bool {
		scanned = append(scanned, string(r.Key))
		return true
	}); err != nil {
		t.Fatalf("%s: scan: %v", when, err)
	}
	if fmt.Sprint(scanned) != fmt.Sprint(live) {
		t.Fatalf("%s: scan returned %d rows, want the %d live keys", when, len(scanned), len(live))
	}
}

// mortalFactory stands in for a process that dies at its n-th
// IngestChains: that call and everything after it, on the factory and on
// every engine it opened, fails without touching the disk. What the dead
// process left behind is then recovered by a fresh factory.
type mortalFactory struct {
	storage.Factory
	ingestsLeft int
	dead        bool
}

func (f *mortalFactory) Open(id uint64, start, end []byte) (storage.Engine, error) {
	if f.dead {
		return nil, storage.ErrCrashed
	}
	e, err := f.Factory.Open(id, start, end)
	if err != nil {
		return nil, err
	}
	return &mortalEngine{Engine: e, fac: f}, nil
}

func (f *mortalFactory) Destroy(id uint64) error {
	if f.dead {
		return storage.ErrCrashed
	}
	return f.Factory.Destroy(id)
}

type mortalEngine struct {
	storage.Engine
	fac *mortalFactory
}

func (e *mortalEngine) IngestChains(chains []storage.Chain) error {
	if e.fac.ingestsLeft == 0 {
		e.fac.dead = true
	}
	if e.fac.dead {
		return storage.ErrCrashed
	}
	e.fac.ingestsLeft--
	return e.Engine.IngestChains(chains)
}

func (e *mortalEngine) SetBounds(start, end []byte) error {
	if e.fac.dead {
		return storage.ErrCrashed
	}
	return e.Engine.SetBounds(start, end)
}

func (e *mortalEngine) Commission() error {
	if e.fac.dead {
		return storage.ErrCrashed
	}
	return e.Engine.Commission()
}

func (e *mortalEngine) Crashed() bool { return e.fac.dead || e.Engine.Crashed() }

func mortalConfig(t *testing.T, dir string, ingests int) (Config, *mortalFactory) {
	cfg := diskConfig(t, dir)
	fac := &mortalFactory{Factory: cfg.Storage, ingestsLeft: ingests}
	cfg.Storage = fac
	return cfg, fac
}

// TestSplitKilledBetweenChunks: the process dies after the first chunk of
// a split's copy reached the pending target. Restart removes the target
// (it was never commissioned) and the source serves everything, old
// versions and tombstones included.
func TestSplitKilledBetweenChunks(t *testing.T) {
	dir := t.TempDir()
	cfg, fac := mortalConfig(t, dir, 1)
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := history{}
	const n = 80
	for round := 0; round < 2; round++ {
		for i := 0; i < n; i++ {
			key, val := fmt.Sprintf("k-%03d", i), fmt.Sprintf("v%d.%d", round, i)
			h.record(key, storage.Version{TS: put(t, db, key, val), Value: []byte(val)})
		}
	}
	for i := 0; i < n; i += 9 {
		key := fmt.Sprintf("k-%03d", i)
		txn := db.Begin()
		txn.Delete([]byte(key))
		h.record(key, storage.Version{TS: mustCommit(t, txn), Deleted: true})
	}
	h.check(t, db, "before the split")

	// 41 chains move: one chunk of 32 lands, the second kills the process.
	db.mu.Lock()
	tab := db.tablets[0]
	tab.mu.Lock()
	right := db.splitLocked(tab, tab.store, []byte("k-039"))
	tab.mu.Unlock()
	db.mu.Unlock()
	if right != nil || !fac.dead {
		t.Fatalf("split returned %v (process dead: %v); want it killed mid-copy", right, fac.dead)
	}
	db.Close()

	re, err := Open(diskConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if entries, _ := os.ReadDir(dir); re.TabletCount() != 1 || len(entries) != 1 {
		t.Fatalf("%d tablets over %d directories after restart, want the source alone", re.TabletCount(), len(entries))
	}
	h.check(t, re, "after the restart")
}

// TestMergeKilledBetweenChunks: the process dies after the first chunk of
// a merge's copy reached the absorbing tablet, whose bounds were already
// widened. Restart resolves the overlap in favour of the right tablet,
// which still owns its whole range; running the merge again completes it,
// and the contents match the oracle at every step.
func TestMergeKilledBetweenChunks(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	mid := []byte("k-010")
	h := history{}
	{
		// Two tablets, 10 and 40 keys, written below the DB: every key
		// twice, some deleted. The right one's first three keys are wide
		// enough to fill a chunk by MaxScanBytes: a chunk of 32 would leave
		// 32 purge markers in the left tablet after the restart, and with
		// them counted as keys the pair is too big to merge again.
		fac, err := storage.NewDiskFactory(dir, storage.Options{})
		if err != nil {
			t.Fatal(err)
		}
		left, err := fac.Open(1, nil, mid)
		if err != nil {
			t.Fatal(err)
		}
		right, err := fac.Open(2, mid, nil)
		if err != nil {
			t.Fatal(err)
		}
		ts := truetime.Timestamp(1000)
		for round := 0; round < 3; round++ {
			for i := 0; i < 50; i++ {
				e, key := left, fmt.Sprintf("k-%03d", i)
				if i >= 10 {
					e = right
				}
				ts++
				w := storage.Write{Key: []byte(key), Value: []byte(fmt.Sprintf("v%d.%d", round, i))}
				if round == 0 && i >= 10 && i < 13 {
					w.Value = bytes.Repeat(w.Value, storage.MaxScanBytes/3/len(w.Value)+1)
				}
				if round == 2 {
					if i%7 != 0 {
						continue
					}
					w = storage.Write{Key: []byte(key), Delete: true}
				}
				if err := e.Apply(ctx, []storage.Write{w}, ts); err != nil {
					t.Fatal(err)
				}
				h.record(key, storage.Version{TS: ts, Value: w.Value, Deleted: w.Delete})
			}
		}
		for _, e := range []storage.Engine{left, right} {
			if err := e.Commission(); err != nil {
				t.Fatal(err)
			}
			e.Close()
		}
	}

	// open recovers the tablets; any MaxTabletRows arms the split/merge
	// pass, which merge runs with every tablet cold.
	merge := func(db *DB) {
		for _, tab := range db.tablets {
			tab.mu.Lock()
			tab.load = 0
			tab.mu.Unlock()
		}
		db.maybeSplit()
	}
	open := func(cfg Config) *DB {
		t.Helper()
		cfg.MaxTabletRows = 1000
		db, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	cfg, fac := mortalConfig(t, dir, 1)
	db := open(cfg)
	h.check(t, db, "before the merge")
	merge(db) // 40 chains to absorb: the 3 wide ones land, the second chunk kills the process
	if !fac.dead || db.Stats().Merges != 0 {
		t.Fatalf("process dead: %v, %d merges; want the merge killed mid-copy", fac.dead, db.Stats().Merges)
	}
	db.Close()

	db = open(diskConfig(t, dir))
	if infos := db.TabletStats(); len(infos) != 2 || infos[0].End != string(mid) || infos[1].Start != string(mid) {
		t.Fatalf("tablets after restart = %+v, want the two halves split at %s", infos, mid)
	}
	h.check(t, db, "after the restart")
	merge(db)
	if db.TabletCount() != 1 {
		t.Fatalf("%d tablets after running the merge again, want 1", db.TabletCount())
	}
	h.check(t, db, "after the merge ran again")
	db.Close()

	db = open(diskConfig(t, dir))
	defer db.Close()
	if db.TabletCount() != 1 {
		t.Fatalf("%d tablets after the last restart, want 1", db.TabletCount())
	}
	h.check(t, db, "after the last restart")
}

// chunkCountingFactory records how many chains each IngestChains carried.
type chunkCountingFactory struct {
	storage.Factory
	ingests []int
}

func (f *chunkCountingFactory) Open(id uint64, start, end []byte) (storage.Engine, error) {
	e, err := f.Factory.Open(id, start, end)
	if err != nil {
		return nil, err
	}
	return &chunkCountingEngine{Engine: e, fac: f}, nil
}

type chunkCountingEngine struct {
	storage.Engine
	fac *chunkCountingFactory
}

func (e *chunkCountingEngine) IngestChains(chains []storage.Chain) error {
	e.fac.ingests = append(e.fac.ingests, len(chains))
	return e.Engine.IngestChains(chains)
}

// commitClock is a manual clock whose commit wait moves it just past the
// timestamp waited for, so time advances by commits alone.
type commitClock struct{ *truetime.Manual }

func (c commitClock) CommitWait(ts truetime.Timestamp) {
	now := c.Now()
	c.Set(ts + 1 + (now.Latest-now.Earliest)/2)
}

// TestSplitUnderTiering: a Disk tablet counts a key once per segment
// that holds it, and under tiered compaction a hot key sits in every
// tier: after a zipfian workload over 80 keys has spread them over three
// size classes, half of Stats().Keys is past the last key. At the parent
// commit maybeSplit asked KeyAt for it, got nothing, and never split the
// tablet; now it halves until a key is there. The split then moves
// bounded chunks and every key reads its newest value on whichever side
// it landed.
func TestSplitUnderTiering(t *testing.T) {
	const (
		distinct = 80
		memCap   = 2 << 10 // diskConfig's
	)
	dir := t.TempDir()
	cfg := diskConfig(t, dir)
	fac := &chunkCountingFactory{Factory: cfg.Storage}
	cfg.Storage = fac
	// A version outlives its successor by GCRetention of the clock's
	// time, so on the system clock a slow run trims more and leaves fewer
	// segments: the workload's time must follow its commits instead.
	cfg.Clock = commitClock{truetime.NewManual(1, 10*time.Microsecond)}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(9))
	zipf := rand.NewZipf(rng, 1.1, 1, distinct-1)
	newest := map[string]string{}
	for i := 0; i < distinct; i++ { // every key once, then the skew
		key := fmt.Sprintf("k-%03d", i)
		newest[key] = "v0"
		put(t, db, key, newest[key])
	}
	for i := 0; i < 4000; i++ {
		key := fmt.Sprintf("k-%03d", zipf.Uint64())
		newest[key] = fmt.Sprintf("v%d-%040d", i, i)
		put(t, db, key, newest[key])
	}

	// The tablet's segments, from its manifest: three size classes or
	// more, and more chains between them than twice the keys there are.
	var man struct {
		Segments []struct {
			Bytes  int64 `json:"bytes"`
			Chains int   `json:"chains"`
		} `json:"segments"`
	}
	manifests, _ := filepath.Glob(filepath.Join(dir, "t-*", "MANIFEST.json"))
	if len(manifests) != 1 {
		t.Fatalf("%d tablet directories before the split, want 1", len(manifests))
	}
	data, err := os.ReadFile(manifests[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	classes := map[int]bool{}
	for _, s := range man.Segments {
		classes[int(math.Max(math.Log(float64(s.Bytes)/memCap)/math.Log(storage.DefaultCompactAt)+0.5, 0))] = true
	}
	keys := db.TabletStats()[0].Storage.Keys
	t.Logf("%d segments in %d size classes count %d keys for %d distinct", len(man.Segments), len(classes), keys, distinct)
	if len(classes) < 3 || keys/2 < distinct {
		t.Fatalf("the workload left %d size classes and a count of %d: want >= 3 and >= %d, or the median is in range and the test shows nothing", len(classes), keys, 2*distinct)
	}

	db.mu.Lock()
	db.maxTabletRows = distinct / 2
	db.mu.Unlock()
	db.maybeSplit()
	if db.Stats().Splits != 1 {
		t.Fatalf("%d splits, want 1", db.Stats().Splits)
	}
	infos := db.TabletStats()
	if len(infos) != 2 || infos[1].Start <= "k-000" || infos[1].Start >= fmt.Sprintf("k-%03d", distinct-1) {
		t.Fatalf("tablets after the split: %+v, want two with the split key inside the key range", infos)
	}
	if len(fac.ingests) == 0 || slices.Max(fac.ingests) > storage.MaxScanChunk {
		t.Fatalf("the split's ingests carried %v chains, want some, each <= %d", fac.ingests, storage.MaxScanChunk)
	}
	ctx := context.Background()
	ts := db.StrongReadTimestamp()
	for key, want := range newest {
		if got, _, ok, err := db.SnapshotGet(ctx, []byte(key), ts); err != nil || !ok || string(got) != want {
			t.Fatalf("%s after the split = %q, %v, %v; want %q", key, got, ok, err, want)
		}
	}
	n := 0
	if err := db.SnapshotScan(ctx, nil, nil, ts, false, func(ScanRow) bool { n++; return true }); err != nil || n != distinct {
		t.Fatalf("scan after the split: %d rows, %v; want %d", n, err, distinct)
	}
}
