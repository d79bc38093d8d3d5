package backend

import (
	"context"
	"fmt"

	"firestore/internal/catalog"
	"firestore/internal/doc"
	"firestore/internal/encoding"
	"firestore/internal/index"
	"firestore/internal/spanner"
	"firestore/internal/status"
)

// backfillBatch bounds documents per backfill transaction so the
// background job never holds wide locks.
const backfillBatch = 100

// AddCompositeIndex registers a composite index and runs the backfill:
// the index is immediately maintained by writers (so concurrent writes
// conform to the on-going backfill, §IV-D1), the Entities table is
// scanned for affected documents, entries are added in batches, and the
// index is finally marked ready for query planning.
func (b *Backend) AddCompositeIndex(ctx context.Context, dbID string, def index.Definition) error {
	db, err := b.cat.Get(dbID)
	if err != nil {
		return err
	}
	if def.Kind != index.KindComposite {
		return status.Errorf(status.InvalidArgument, "backend", "%v is not a composite index", def)
	}
	db.AddComposite(def)
	if err := b.backfill(ctx, db, def); err != nil {
		return fmt.Errorf("backfilling %v: %w", def, err)
	}
	db.FinishBackfill(def.ID)
	return nil
}

func (b *Backend) backfill(ctx context.Context, db *catalog.Database, def index.Definition) error {
	return b.scanAllDocuments(ctx, db, func(batch []*doc.Document) error {
		// Re-read the batch's documents under lock: one deleted or
		// rewritten since the snapshot must not resurrect stale entries
		// (concurrent writers maintain the index themselves).
		var names []doc.Name
		var rows []spanner.LockedRow
		for _, snap := range batch {
			if snap.Name.Collection().ID() == def.Collection {
				names = append(names, snap.Name)
				rows = append(rows, spanner.LockedRow{Key: db.EntityKey(snap.Name)})
			}
		}
		txn := db.Spanner.Begin()
		if err := txn.LockRead(ctx, rows); err != nil {
			txn.Abort()
			return err
		}
		for i, r := range rows {
			d, err := rowDoc(r.BatchGet, names[i])
			if err != nil {
				txn.Abort()
				return err
			}
			if d == nil {
				continue
			}
			_, entries := index.DiffEntries(db.IndexPrefix(), nil, d, []index.Definition{def}, nil)
			for _, e := range entries {
				// The entries of a whole document include the automatic
				// ones; keep only this index's.
				if e.ID == def.ID {
					txn.Put(e.Key, []byte(d.Name.String()))
				}
			}
		}
		_, err := txn.Commit(ctx, 0, 0)
		return err
	})
}

// RemoveCompositeIndex drops a composite definition and backremoves its
// entries.
func (b *Backend) RemoveCompositeIndex(ctx context.Context, dbID string, id uint64) error {
	db, err := b.cat.Get(dbID)
	if err != nil {
		return err
	}
	db.RemoveComposite(id)
	// Backremoval: delete the index's whole IndexEntries range in
	// batches.
	prefix := index.IDPrefix(id)
	klo, khi := db.IndexRange(prefix, encoding.PrefixSuccessor(prefix))
	for {
		var keys [][]byte
		err := db.Spanner.SnapshotScan(ctx, klo, khi, db.Spanner.StrongReadTimestamp(), false, func(r spanner.ScanRow) bool {
			keys = append(keys, append([]byte(nil), r.Key...))
			return len(keys) < backfillBatch
		})
		if err != nil {
			return err
		}
		if len(keys) == 0 {
			return nil
		}
		txn := db.Spanner.Begin()
		for _, k := range keys {
			txn.Delete(k)
		}
		if _, err := txn.Commit(ctx, 0, 0); err != nil {
			return err
		}
		if len(keys) < backfillBatch {
			return nil
		}
	}
}

// scanAllDocuments streams every document of the database in batches.
func (b *Backend) scanAllDocuments(ctx context.Context, db *catalog.Database, fn func([]*doc.Document) error) error {
	lo, hi := db.EntityRange(nil, nil)
	var batch []*doc.Document
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		err := fn(batch)
		batch = batch[:0]
		return err
	}
	var scanErr error
	err := db.Spanner.SnapshotScan(ctx, lo, hi, db.Spanner.StrongReadTimestamp(), false, func(r spanner.ScanRow) bool {
		d, err := ResolveDoc(r.Value, doc.Name{}, r.TS)
		if err != nil {
			return true
		}
		batch = append(batch, d)
		if len(batch) >= backfillBatch {
			if scanErr = flush(); scanErr != nil {
				return false
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	if scanErr != nil {
		return scanErr
	}
	return flush()
}
