package backend

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"firestore/internal/doc"
	"firestore/internal/query"
	"firestore/internal/truetime"
)

// TestCollectionScanSurfacesCorruptRow: a query that scans a collection's
// Entities rows fails on a row whose checksum does not verify, as a get
// of that document does, instead of leaving it out of the result.
func TestCollectionScanSurfacesCorruptRow(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	set(t, e, "/c/good", map[string]doc.Value{"n": doc.Int(1)})
	set(t, e, "/c/victim", map[string]doc.Value{"n": doc.Int(2)})
	db := e.cat.MustGet(e.dbID)
	key := db.EntityKey(doc.MustName("/c/victim"))
	blob, _, ok, err := db.Spanner.SnapshotGet(ctx, key, db.Spanner.StrongReadTimestamp())
	if err != nil || !ok {
		t.Fatal("victim row missing")
	}
	flipped := append([]byte(nil), blob...)
	flipped[len(flipped)/2] ^= 0x40
	txn := db.Spanner.Begin()
	txn.Put(key, flipped)
	if _, err := txn.Commit(ctx, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.b.GetDocument(ctx, e.dbID, priv, doc.MustName("/c/victim"), 0); !errors.Is(err, doc.ErrChecksum) {
		t.Fatalf("get of the corrupt row = %v, want %v", err, doc.ErrChecksum)
	}
	q := &query.Query{Collection: doc.MustCollection("/c")}
	res, _, err := e.b.RunQuery(ctx, e.dbID, priv, q, nil, 0)
	if !errors.Is(err, doc.ErrChecksum) {
		t.Fatalf("collection query = %v, %v; want %v", res, err, doc.ErrChecksum)
	}
}

// TestMemoServesOnlyTheReadVersion: a memoized document is served only to
// a read of the same database, row and version. The create, the delete
// and the re-create write the same blob, so only the version tells the
// first document from the last.
func TestMemoServesOnlyTheReadVersion(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	name := doc.MustName("/c/d")
	read := func(dbID string, at truetime.Timestamp) *doc.Document {
		t.Helper()
		d, _, err := e.b.GetDocument(ctx, dbID, priv, name, at)
		if errors.Is(err, ErrNotFound) {
			return nil
		}
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	check := func(d *doc.Document, n int64, create, update truetime.Timestamp) {
		t.Helper()
		if d == nil || d.Fields["n"].IntVal() != n || d.CreateTime != create || d.UpdateTime != update {
			t.Fatalf("read %v, want n=%d created %d updated %d", d, n, create, update)
		}
	}
	ts1 := set(t, e, "/c/d", map[string]doc.Value{"n": doc.Int(1)})
	check(read(e.dbID, 0), 1, ts1, ts1)
	ts2 := set(t, e, "/c/d", map[string]doc.Value{"n": doc.Int(2)})
	check(read(e.dbID, 0), 2, ts1, ts2)
	check(read(e.dbID, ts1), 1, ts1, ts1)
	ts3, err := e.b.Commit(ctx, e.dbID, priv, []WriteOp{{Kind: OpDelete, Name: name}})
	if err != nil {
		t.Fatal(err)
	}
	if d := read(e.dbID, 0); d != nil {
		t.Fatalf("read after delete = %v", d)
	}
	ts4 := set(t, e, "/c/d", map[string]doc.Value{"n": doc.Int(1)})
	check(read(e.dbID, 0), 1, ts4, ts4)
	check(read(e.dbID, ts1), 1, ts1, ts1)
	check(read(e.dbID, ts2), 2, ts1, ts2)
	if d := read(e.dbID, ts3); d != nil {
		t.Fatalf("read at the delete = %v", d)
	}

	if _, err := e.cat.Create("other"); err != nil {
		t.Fatal(err)
	}
	tsOther, err := e.b.Commit(ctx, "other", priv, []WriteOp{{Kind: OpSet, Name: name, Fields: map[string]doc.Value{"n": doc.Int(99)}}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		check(read("other", 0), 99, tsOther, tsOther)
		check(read(e.dbID, 0), 1, ts4, ts4)
	}
	if e.b.memo.hits.Load() == 0 {
		t.Fatal("no read was answered from the memo")
	}
}

// TestMemoHitStillVerifiesChecksum: a version the memo holds is still
// checked against the blob the engine returns, so a row corrupted in
// place after it was memoized fails the read.
func TestMemoHitStillVerifiesChecksum(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	name := doc.MustName("/c/d")
	set(t, e, "/c/d", map[string]doc.Value{"s": doc.String("hello, world")})
	hits := e.b.memo.hits.Load()
	get(t, e, "/c/d")
	if e.b.memo.hits.Load() == hits {
		t.Fatal("the read after the commit was not a memo hit")
	}
	db := e.cat.MustGet(e.dbID)
	blob, _, ok, err := db.Spanner.SnapshotGet(ctx, db.EntityKey(name), db.Spanner.StrongReadTimestamp())
	if err != nil || !ok {
		t.Fatal("row missing")
	}
	blob[len(blob)/2] ^= 0x40 // the engine's own copy
	if _, _, err := e.b.GetDocument(ctx, e.dbID, priv, name, 0); !errors.Is(err, doc.ErrChecksum) {
		t.Fatalf("get of the corrupted row = %v, want %v", err, doc.ErrChecksum)
	}
}

// TestMemoConcurrentReadersSeeTheirVersion: while writers bump a counter
// in read-modify-write transactions, every strong read returns the
// version the engine resolves its timestamp to — the same fields and
// UpdateTime a fresh decode of that row gives — and no reader's counter
// goes backwards.
func TestMemoConcurrentReadersSeeTheirVersion(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	name := doc.MustName("/c/counter")
	set(t, e, "/c/counter", map[string]doc.Value{"n": doc.Int(0)})
	db := e.cat.MustGet(e.dbID)
	key := db.EntityKey(name)
	const writers, bumps, readers = 2, 100, 4
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < bumps; {
				d, _, err := e.b.GetDocument(ctx, e.dbID, priv, name, 0)
				if err != nil {
					t.Error(err)
					return
				}
				_, err = e.b.CommitTransactional(ctx, e.dbID, priv,
					[]WriteOp{{Kind: OpSet, Name: name, Fields: map[string]doc.Value{"n": doc.Int(d.Fields["n"].IntVal() + 1)}}},
					[]ReadValidation{{Name: name, UpdateTime: d.UpdateTime}})
				switch {
				case err == nil:
					i++
				case !errors.Is(err, ErrConflict):
					t.Error(err)
					return
				}
			}
		}()
	}
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			last := int64(-1)
			for {
				select {
				case <-done:
					return
				default:
				}
				d, at, err := e.b.GetDocument(ctx, e.dbID, priv, name, 0)
				if err != nil {
					t.Error(err)
					return
				}
				blob, vts, _, err := db.Spanner.SnapshotGet(ctx, key, at)
				if err != nil {
					t.Error(err)
					return
				}
				fresh, err := ResolveDoc(blob, name, vts)
				if err != nil {
					t.Error(err)
					return
				}
				if d.UpdateTime != vts || d.CreateTime != fresh.CreateTime || !d.Equal(fresh) {
					t.Errorf("read at %d returned %v updated %d; the engine's version is %v updated %d", at, d, d.UpdateTime, fresh, vts)
					return
				}
				n := d.Fields["n"].IntVal()
				if n < last {
					t.Errorf("counter went back from %d to %d", last, n)
					return
				}
				last = n
			}
		}()
	}
	wg.Wait()
	close(done)
	rg.Wait()
	if n := get(t, e, "/c/counter").Fields["n"].IntVal(); n != writers*bumps {
		t.Fatalf("counter = %d, want %d", n, writers*bumps)
	}
}

// TestMemoHitAllocs holds the allocation count of a point read the memo
// answers: the layers around the engine read, nothing per field of the
// document, and no row key (a miss copies the pooled one). The decoded
// read of this document made 14, and a hit 2 while each read allocated
// its row key.
func TestMemoHitAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops entries under -race; allocation counts mean nothing")
	}
	e := newEnv(t)
	ctx := context.Background()
	name := doc.MustName("/restaurants/r000042")
	set(t, e, name.String(), restaurantFields(42))
	hits := e.b.memo.hits.Load()
	got := testing.AllocsPerRun(200, func() {
		if _, _, err := e.b.GetDocument(ctx, e.dbID, priv, name, 0); err != nil {
			t.Fatal(err)
		}
	})
	if n := e.b.memo.hits.Load() - hits; n != 201 {
		t.Fatalf("%d of 201 reads were memo hits", n)
	}
	t.Logf("memoized GetDocument: %.0f allocations", got)
	if got > 1 {
		t.Errorf("memoized GetDocument allocates %.0f times, want <= 1", got)
	}
}

// TestMemoSurvivesCollisions: a working set of 10 000 documents, under a
// third of the memo's slots, stays memoized. Read twice, the second pass
// is answered from the memo, not re-decoded because another row hashed
// to the same slot (the direct-mapped memo this replaced hit about 74 %
// here; four ways indexed by one hash, about 98.3 %).
func TestMemoSurvivesCollisions(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	const rows = 10000
	names := make([]doc.Name, rows)
	ops := make([]WriteOp, 0, 500)
	for i := range names {
		names[i] = doc.MustName(fmt.Sprintf("/c/d%05d", i))
		ops = append(ops, WriteOp{Kind: OpSet, Name: names[i], Fields: map[string]doc.Value{"n": doc.Int(int64(i))}})
		if len(ops) == cap(ops) {
			if _, err := e.b.Commit(ctx, e.dbID, priv, ops); err != nil {
				t.Fatal(err)
			}
			ops = ops[:0]
		}
	}
	pass := func() int64 {
		hits := e.b.memo.hits.Load()
		for i, name := range names {
			d, _, err := e.b.GetDocument(ctx, e.dbID, priv, name, 0)
			if err != nil || d.Fields["n"].IntVal() != int64(i) {
				t.Fatalf("get %s = %v, %v", name, d, err)
			}
		}
		return e.b.memo.hits.Load() - hits
	}
	pass()
	hits := pass()
	t.Logf("second pass over %d rows: %d memo hits", rows, hits)
	if hits < rows*98/100 {
		t.Errorf("second pass over %d rows hit the memo %d times, want >= 98 %%", rows, hits)
	}
}
