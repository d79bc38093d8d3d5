package backend

import (
	"context"
	"fmt"
	"math"
	"testing"

	"firestore/internal/doc"
	"firestore/internal/index"
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
	// The corrupted doc's entries now appear unjustified (the doc cannot
	// be decoded), so missing entries are not expected but orphans are.
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
	txn := db.Spanner.Begin()
	txn.Delete(db.IndexKey(entries[0]))
	if _, err := txn.Commit(ctx, 0, 0); err != nil {
		t.Fatal(err)
	}
	report, _ := e.b.ValidateDatabase(ctx, e.dbID)
	if len(report.MissingEntries) != 1 {
		t.Fatalf("missing = %v", report.MissingEntries)
	}

	fixes, err := e.b.RepairIndexes(ctx, e.dbID)
	if err != nil {
		t.Fatal(err)
	}
	if fixes != 1 {
		t.Fatalf("fixes = %d, want 1", fixes)
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
