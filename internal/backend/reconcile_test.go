package backend

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"firestore/internal/doc"
	"firestore/internal/index"
	"firestore/internal/status"
)

func TestValidateCleanDatabase(t *testing.T) {
	e := newEnv(t)
	for i := 0; i < 20; i++ {
		set(t, e, fmt.Sprintf("/c/d%02d", i), map[string]doc.Value{
			"n":    doc.Int(int64(i)),
			"tags": doc.Array(doc.String("a"), doc.String("b")),
		})
	}
	// Mix in updates and deletes so diffs have run.
	set(t, e, "/c/d00", map[string]doc.Value{"n": doc.Int(99)})
	// Values that differ only in representation, or only by a NaN: the
	// field-wise diff skips what doc.Equal calls equal, so those must
	// encode to the same index keys.
	set(t, e, "/c/d02", map[string]doc.Value{"n": doc.Int(1), "g": doc.Geo(math.Copysign(0, -1), 1),
		"a": doc.Array(doc.Geo(math.NaN(), 2))})
	set(t, e, "/c/d02", map[string]doc.Value{"n": doc.Double(1), "g": doc.Geo(0, 1),
		"a": doc.Array(doc.Geo(5, 2))})
	e.b.Commit(context.Background(), e.dbID, priv, []WriteOp{{Kind: OpDelete, Name: doc.MustName("/c/d01")}})

	report, err := e.b.ValidateDatabase(context.Background(), e.dbID)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean() {
		t.Fatalf("validation found problems: %s\nmissing=%v orphans=%v corrupt=%v",
			report, report.MissingEntries, report.OrphanEntries, report.CorruptDocs)
	}
	if report.Documents != 19 {
		t.Fatalf("documents = %d, want 19", report.Documents)
	}
	if report.IndexEntries == 0 {
		t.Fatal("no index entries validated")
	}
	if report.String() == "" {
		t.Fatal("empty report string")
	}
}

func TestValidateDetectsCorruptionAndDrift(t *testing.T) {
	e := newEnv(t)
	set(t, e, "/c/good", map[string]doc.Value{"n": doc.Int(1)})
	set(t, e, "/c/victim", map[string]doc.Value{"n": doc.Int(2)})
	db := e.cat.MustGet(e.dbID)

	// Corrupt the victim's Entities row (bit flip) and delete one of its
	// index entries, simulating storage/memory corruption.
	ctx := context.Background()
	victimKey := db.EntityKey(doc.MustName("/c/victim"))
	blob, _, ok, err := db.Spanner.SnapshotGet(ctx, victimKey, db.Spanner.StrongReadTimestamp())
	if err != nil || !ok {
		t.Fatal("victim row missing")
	}
	flipped := append([]byte(nil), blob...)
	flipped[len(flipped)/2] ^= 0x40
	txn := db.Spanner.Begin()
	txn.Put(victimKey, flipped)
	// Also plant an orphan index entry pointing at a ghost document.
	ghost := doc.New(doc.MustName("/c/ghost"), map[string]doc.Value{"n": doc.Int(3)})
	var orphan []byte
	for _, k := range indexEntriesFor(ghost) {
		orphan = k
		break
	}
	txn.Put(db.IndexKey(orphan), []byte("/c/ghost"))
	if _, err := txn.Commit(ctx, 0, 0); err != nil {
		t.Fatal(err)
	}

	report, err := e.b.ValidateDatabase(ctx, e.dbID)
	if err != nil {
		t.Fatal(err)
	}
	if report.Clean() {
		t.Fatal("validation missed the corruption")
	}
	if len(report.CorruptDocs) != 1 {
		t.Fatalf("corrupt docs = %v", report.CorruptDocs)
	}
	if len(report.OrphanEntries) == 0 {
		t.Fatal("orphan entry not detected")
	}
	// The corrupt document is reported once, and its entries are neither
	// missing (it implies nothing it can be checked against) nor orphans
	// (the document is what is broken, not the index): the one orphan is
	// the ghost's entry.
}

func TestRepairIndexes(t *testing.T) {
	e := newEnv(t)
	set(t, e, "/c/a", map[string]doc.Value{"n": doc.Int(1)})
	db := e.cat.MustGet(e.dbID)
	ctx := context.Background()

	// Remove one index entry behind the engine's back.
	d, _, err := e.b.GetDocument(ctx, e.dbID, priv, doc.MustName("/c/a"), 0)
	if err != nil {
		t.Fatal(err)
	}
	entries := indexEntriesFor(d)
	if len(entries) == 0 {
		t.Fatal("no entries")
	}
	// And plant an entry of a ghost document beside it.
	ghost := doc.New(doc.MustName("/c/ghost"), map[string]doc.Value{"n": doc.Int(3)})
	txn := db.Spanner.Begin()
	txn.Delete(db.IndexKey(entries[0]))
	txn.Put(db.IndexKey(indexEntriesFor(ghost)[0]), []byte("/c/ghost"))
	if _, err := txn.Commit(ctx, 0, 0); err != nil {
		t.Fatal(err)
	}
	report, _ := e.b.ValidateDatabase(ctx, e.dbID)
	if len(report.MissingEntries) != 1 || len(report.OrphanEntries) != 1 {
		t.Fatalf("missing = %v, orphans = %v", report.MissingEntries, report.OrphanEntries)
	}

	fixes, err := e.b.RepairIndexes(ctx, e.dbID)
	if err != nil {
		t.Fatal(err)
	}
	if fixes != 2 {
		t.Fatalf("fixes = %d, want 2 (one insert, one delete)", fixes)
	}
	report, _ = e.b.ValidateDatabase(ctx, e.dbID)
	if !report.Clean() {
		t.Fatalf("still dirty after repair: %s", report)
	}
}

// indexEntriesFor derives a document's automatic index entries (test
// helper mirroring the write path).
func indexEntriesFor(d *doc.Document) [][]byte {
	return index.Entries(d, nil, nil)
}

// corrupt flips a bit in the middle of a document's stored blob behind
// the engine's back.
func corrupt(t *testing.T, e *env, name string) {
	t.Helper()
	ctx := context.Background()
	db := e.cat.MustGet(e.dbID)
	key := db.EntityKey(doc.MustName(name))
	blob, _, ok, err := db.Spanner.SnapshotGet(ctx, key, db.Spanner.StrongReadTimestamp())
	if err != nil || !ok {
		t.Fatalf("%s: row missing (%v)", name, err)
	}
	flipped := append([]byte(nil), blob...)
	flipped[len(flipped)/2] ^= 0x40
	txn := db.Spanner.Begin()
	txn.Put(key, flipped)
	if _, err := txn.Commit(ctx, 0, 0); err != nil {
		t.Fatal(err)
	}
}

func TestBackfillFailsOnUndecodableDocument(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	set(t, e, "/c/good", map[string]doc.Value{"a": doc.Int(1), "b": doc.Int(2)})
	set(t, e, "/c/bad", map[string]doc.Value{"a": doc.Int(3), "b": doc.Int(4)})
	corrupt(t, e, "/c/bad")
	def := index.CompositeDef("c", index.Field{Path: "a"}, index.Field{Path: "b", Dir: index.Descending})
	if err := e.b.AddCompositeIndex(ctx, e.dbID, def); err == nil {
		t.Fatal("backfill over an undecodable document succeeded")
	}
	for _, d := range e.cat.MustGet(e.dbID).Meta().ReadyComposites() {
		if d.ID == def.ID {
			t.Fatal("a failed backfill left its index ready for queries")
		}
	}
}

func TestExemptionBackremovesEntries(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		set(t, e, fmt.Sprintf("/events/e%d", i), map[string]doc.Value{
			"seq": doc.Int(int64(i)), "tags": doc.Array(doc.String("x")), "kind": doc.String("click"),
		})
	}
	before, err := e.b.ValidateDatabase(ctx, e.dbID)
	if err != nil || !before.Clean() {
		t.Fatalf("before: %v, %v", before, err)
	}
	if err := e.b.AddExemption(ctx, e.dbID, "events", "seq"); err != nil {
		t.Fatal(err)
	}
	if err := e.b.AddExemption(ctx, e.dbID, "events", "tags"); err != nil {
		t.Fatal(err)
	}
	after, err := e.b.ValidateDatabase(ctx, e.dbID)
	if err != nil || !after.Clean() {
		t.Fatalf("after exempting written fields: %v, %v (orphans %v)", after, err, after.OrphanEntries)
	}
	// Per document: seq's two automatic entries, tags' two and its one
	// contains entry.
	if want := before.IndexEntries - 3*5; after.IndexEntries != want {
		t.Fatalf("index entries %d -> %d, want %d", before.IndexEntries, after.IndexEntries, want)
	}
}

// TestReconcileUnderWriters runs repair and validation in a loop while
// writers set, update and delete documents of a collection with a
// composite index. Every batch reads its documents and their entries
// under locks, so once the damage planted before the writers start (a
// missing entry and a ghost's entry) is repaired, every validation amid
// the writers is clean, and at the end a repair finds nothing. One
// goroutine alternates the two: two loops taking shared locks back to
// back over the same forty documents would keep a writer's exclusive
// wait from ever being granted (the lock table does not prefer writers)
// until it timed out.
func TestReconcileUnderWriters(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	db := e.cat.MustGet(e.dbID)
	def := index.CompositeDef("c", index.Field{Path: "k"}, index.Field{Path: "n", Dir: index.Descending})
	if err := e.b.AddCompositeIndex(ctx, e.dbID, def); err != nil {
		t.Fatal(err)
	}
	const docs = 40
	for i := 0; i < docs; i++ {
		set(t, e, fmt.Sprintf("/c/d%02d", i), map[string]doc.Value{"k": doc.Int(int64(i % 3)), "n": doc.Int(int64(i))})
	}
	d := get(t, e, "/c/d00")
	ghost := doc.New(doc.MustName("/c/ghost"), map[string]doc.Value{"n": doc.Int(3)})
	txn := db.Spanner.Begin()
	txn.Delete(db.IndexKey(indexEntriesFor(d)[0]))
	txn.Put(db.IndexKey(indexEntriesFor(ghost)[0]), []byte("/c/ghost"))
	if _, err := txn.Commit(ctx, 0, 0); err != nil {
		t.Fatal(err)
	}

	// Lock waits that time out abort (a retryable code) on either side.
	retryable := func(err error) bool { return err == nil || status.Retryable(status.CodeOf(err)) }
	var writers sync.WaitGroup
	stop, stopped := make(chan struct{}), make(chan struct{})
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 150; i++ {
				op := WriteOp{Kind: OpSet, Name: doc.MustName(fmt.Sprintf("/c/d%02d", rng.Intn(docs))),
					Fields: map[string]doc.Value{"k": doc.Int(rng.Int63n(3)), "n": doc.Int(rng.Int63n(100)),
						"tags": doc.Array(doc.Int(rng.Int63n(4)), doc.Int(rng.Int63n(4)))}}
				switch rng.Intn(4) {
				case 0:
					op.Kind, op.Fields = OpDelete, nil
				case 1:
					op.Kind, op.Fields = OpUpdate, map[string]doc.Value{"n": doc.Int(rng.Int63n(100))}
				}
				if _, err := e.b.Commit(ctx, e.dbID, priv, []WriteOp{op}); !retryable(err) && status.CodeOf(err) != status.NotFound {
					t.Errorf("%v %s: %v", op.Kind, op.Name, err)
					return
				}
			}
		}(int64(w))
	}
	repaired := false // once a repair has run, every validation must be clean
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, err := e.b.RepairIndexes(ctx, e.dbID)
			if !retryable(err) {
				t.Errorf("repair: %v", err)
				return
			}
			repaired = repaired || err == nil
			report, err := e.b.ValidateDatabase(ctx, e.dbID)
			if !retryable(err) {
				t.Errorf("validate: %v", err)
				return
			}
			if repaired && err == nil && !report.Clean() {
				t.Errorf("validation amid writers after a repair: %v (missing %v, orphans %v)", report, report.MissingEntries, report.OrphanEntries)
				return
			}
		}
	}()
	writers.Wait()
	close(stop)
	<-stopped

	report, err := e.b.ValidateDatabase(ctx, e.dbID)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean() {
		t.Fatalf("validation after the writers: %v (missing %v, orphans %v)", report, report.MissingEntries, report.OrphanEntries)
	}
	if fixes, err := e.b.RepairIndexes(ctx, e.dbID); err != nil || fixes != 0 {
		t.Fatalf("repair after the writers fixed %d (%v), want 0", fixes, err)
	}
}
