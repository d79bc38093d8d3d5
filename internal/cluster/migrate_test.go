package cluster

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"firestore/internal/spanner"
	"firestore/internal/storage"
	"firestore/internal/truetime"
)

// chunkRecorder records what every engine.chains reply and every
// engine.ingest frame carried, on tablet servers whose engines a
// recordedFactory opened: the server answers each with exactly one
// AscendChains and one IngestChains call, and a Disk engine logs each
// IngestChains as one WAL record.
type chunkRecorder struct {
	mu               sync.Mutex
	exports, ingests []chunkSize
}

type chunkSize struct{ chains, bytes int }

func (r *chunkRecorder) add(to *[]chunkSize, c chunkSize) {
	r.mu.Lock()
	*to = append(*to, c)
	r.mu.Unlock()
}

// recordedFactory opens every engine through the shared recorder.
type recordedFactory struct {
	storage.Factory
	rec *chunkRecorder
}

func (f *recordedFactory) Open(id uint64, start, end []byte) (storage.Engine, error) {
	e, err := f.Factory.Open(id, start, end)
	if err != nil {
		return nil, err
	}
	return &recordedEngine{Engine: e, rec: f.rec}, nil
}

type recordedEngine struct {
	storage.Engine
	rec *chunkRecorder
}

func (e *recordedEngine) AscendChains(lo, hi []byte, fn func(storage.Chain) bool) {
	var c chunkSize
	e.Engine.AscendChains(lo, hi, func(ch storage.Chain) bool {
		c.chains++
		c.bytes += ch.Bytes()
		return fn(ch)
	})
	e.rec.add(&e.rec.exports, c)
}

func (e *recordedEngine) IngestChains(chains []storage.Chain) error {
	c := chunkSize{chains: len(chains)}
	for _, ch := range chains {
		c.bytes += ch.Bytes()
	}
	e.rec.add(&e.rec.ingests, c)
	return e.Engine.IngestChains(chains)
}

// wrapFactory replaces ts's factory for pool database db with wrap's
// result.
func wrapFactory(t *testing.T, ts *TabletServer, db int, wrap func(storage.Factory) storage.Factory) {
	t.Helper()
	inner, err := ts.factory(db)
	if err != nil {
		t.Fatal(err)
	}
	ts.mu.Lock()
	ts.factories[db] = wrap(inner)
	ts.mu.Unlock()
}

// dbOracle is every version every key of a spanner.DB took.
type dbOracle map[string][]storage.Version

// commit writes key (nil deletes it) and records the version.
func (o dbOracle) commit(t *testing.T, db *spanner.DB, key string, val []byte) {
	t.Helper()
	txn := db.Begin()
	if val == nil {
		txn.Delete([]byte(key))
	} else {
		txn.Put([]byte(key), val)
	}
	ts, err := txn.Commit(context.Background(), 0, 0)
	if err != nil {
		t.Fatalf("commit %s: %v", key, err)
	}
	o[key] = append(o[key], storage.Version{TS: ts, Value: val, Deleted: val == nil})
}

// check reads every key through db at each of its versions' timestamps
// and just before its first.
func (o dbOracle) check(t *testing.T, db *spanner.DB, when string) {
	t.Helper()
	ctx := context.Background()
	for key, vs := range o {
		if _, _, ok, err := db.SnapshotGet(ctx, []byte(key), vs[0].TS-1); err != nil || ok {
			t.Fatalf("%s: %s before its first version: ok=%v err=%v, want absent", when, key, ok, err)
		}
		for _, v := range vs {
			got, vts, ok, err := db.SnapshotGet(ctx, []byte(key), v.TS)
			if err != nil || ok == v.Deleted || ok && (vts != v.TS || !bytes.Equal(got, v.Value)) {
				t.Fatalf("%s: %s@%d = %d bytes, %d, %v, %v; want %d bytes deleted=%v", when, key, v.TS, len(got), vts, ok, err, len(v.Value), v.Deleted)
			}
		}
	}
}

// TestMigrationIsBounded drives a split, a move and a merge, each of more
// than two chunks, through the real stack — spanner over the remote engine
// over Disk-backed tablet servers — and holds that no engine.chains reply,
// no engine.ingest frame and so no ingest WAL record carried more than a
// chunk, while every key reads as the oracle says at each of its versions'
// timestamps afterwards. The split and the move are chunked by rows; a
// merge takes 64 keys at most, so its chunks are cut by MaxScanBytes.
func TestMigrationIsBounded(t *testing.T) {
	coord, servers := startCluster(t, 2, KindDisk)
	rec := &chunkRecorder{}
	for _, ts := range servers {
		// The default memtable: under startCluster's 1 KiB, Stats().Keys
		// counts a key once per flush and the split point wanders.
		ts.cfg.MemtableCap = 0
		for db := 0; db < 2; db++ {
			wrapFactory(t, ts, db, func(inner storage.Factory) storage.Factory {
				return &recordedFactory{Factory: inner, rec: rec}
			})
		}
	}
	open := func(pool, maxRows int) *spanner.DB {
		t.Helper()
		db, err := spanner.Open(spanner.Config{
			Clock:         truetime.NewSystem(10 * time.Microsecond),
			Storage:       coord.Factory(pool),
			MaxTabletRows: maxRows,
		})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	wide := bytes.Repeat([]byte("wide"), storage.MaxScanBytes/2/4+1024) // two to a chunk
	// phase holds that what the recorder saw since the last phase is at
	// least three bounded chunks each way.
	seenExports, seenIngests := 0, 0
	phase := func(what string) {
		t.Helper()
		rec.mu.Lock()
		defer rec.mu.Unlock()
		exports, ingests := rec.exports[seenExports:], rec.ingests[seenIngests:]
		seenExports, seenIngests = len(rec.exports), len(rec.ingests)
		full := 0
		for _, c := range exports {
			if c.chains > 0 {
				full++
			}
		}
		if full < 3 || len(ingests) < 3 {
			t.Fatalf("%s: %d engine.chains replies and %d engine.ingest frames, want at least 3 of each", what, full, len(ingests))
		}
		for _, c := range append(exports, ingests...) {
			// A chunk ends with the chain that takes it past MaxScanBytes.
			if c.chains > storage.MaxScanChunk || c.bytes >= storage.MaxScanBytes+len(wide)+64 {
				t.Fatalf("%s: a chunk of %d chains, %d bytes", what, c.chains, c.bytes)
			}
		}
	}

	// Split: the 201st key sends the upper 101 chains — 60 of them with an
	// old version, some ending in a tombstone — to a new tablet.
	rows := dbOracle{}
	db := open(0, 200)
	defer db.Close()
	key := func(i int) string { return fmt.Sprintf("r-%03d", i) }
	for i := 0; i < 200; i++ {
		rows.commit(t, db, key(i), []byte(fmt.Sprintf("v0.%d", i)))
	}
	for i := 100; i < 160; i++ {
		rows.commit(t, db, key(i), []byte(fmt.Sprintf("v1.%d", i)))
		if i%9 == 0 {
			rows.commit(t, db, key(i), nil)
		}
	}
	rows.commit(t, db, key(200), []byte("v0.200"))
	if db.Stats().Splits != 1 {
		t.Fatalf("%d splits, want 1", db.Stats().Splits)
	}
	phase("split")
	rows.check(t, db, "after the split")

	// Move: the new tablet changes peers.
	moving := dbTablet{0, db.TabletStats()[1].ID}
	from, _ := coord.ownerOf(moving)
	to := "a"
	if from == "a" {
		to = "b"
	}
	if err := coord.MoveTablet(moving.DB, moving.Tablet, to); err != nil {
		t.Fatalf("MoveTablet: %v", err)
	}
	phase("move")
	rows.check(t, db, "after the move")

	// Merge: three tablets written below the DB, the middle one five wide
	// rows deep. Recovered tablets are cold, so the first commit — to the
	// last tablet — lets the first absorb the second.
	merged := dbOracle{}
	fac := coord.Factory(1)
	ts := truetime.Timestamp(1000)
	for id, bounds := range [][2][]byte{{nil, []byte("m")}, {[]byte("m"), []byte("t")}, {[]byte("t"), nil}} {
		e, err := fac.Open(uint64(id+1), bounds[0], bounds[1])
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Commission(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			k := fmt.Sprintf("%c-%d", "amt"[id], i)
			for _, v := range []storage.Version{{Value: []byte("old")}, {Value: wide}, {Deleted: true}} {
				if id != 1 && len(v.Value) > 3 || v.Deleted && i != 4 {
					continue // wide rows in the middle tablet only; one tombstone per tablet
				}
				ts++
				v.TS = ts
				if err := e.Apply(context.Background(), []storage.Write{{Key: []byte(k), Value: v.Value, Delete: v.Deleted}}, ts); err != nil {
					t.Fatal(err)
				}
				merged[k] = append(merged[k], v)
			}
		}
		e.Close()
	}
	db2 := open(1, 1000)
	defer db2.Close()
	merged.commit(t, db2, "z-nudge", []byte("nudge"))
	if db2.Stats().Merges != 1 {
		t.Fatalf("%d merges, want 1", db2.Stats().Merges)
	}
	phase("merge")
	merged.check(t, db2, "after the merge")
}
