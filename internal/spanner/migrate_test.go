package spanner

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sort"
	"testing"

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
