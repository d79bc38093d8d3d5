package backend

import (
	"bytes"
	"context"
	"fmt"
	"slices"

	"firestore/internal/catalog"
	"firestore/internal/doc"
	"firestore/internal/encoding"
	"firestore/internal/index"
	"firestore/internal/spanner"
	"firestore/internal/status"
	"firestore/internal/storage"
)

// This file reconciles a database's IndexEntries table with its
// documents. The index backfill and backremoval of §IV-D1 and the
// periodic data validation job of §VI ("periodic data validation jobs at
// both the Spanner and Firestore layers to verify the correctness of data
// and consistency of indexes") are one walk in two passes:
//
//   - the documents pass locks and reads a batch of documents, then the
//     index entries each one implies; an implied entry that is absent is
//     missing;
//   - the entries pass locks and reads the documents a batch of
//     IndexEntries rows name, then the rows; a row its document does not
//     imply, under the catalog's current indexes and exemptions, is an
//     orphan.
//
// A batch is one transaction. It locks its documents, shared, before its
// entries (every index key sorts after every document key of the
// database), each set with one LockRead, so a batch sees every document
// with the entries it had when it was last written. With fix, the entries
// are locked exclusively and the batch's findings are written in its own
// transaction; without, they are only reported.

// reconcileBatch bounds the rows of one batch transaction, so the walk
// never holds wide locks.
const reconcileBatch = 100

// reportCap bounds the per-category problem lists.
const reportCap = 100

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

// note appends a finding to one of a report's lists, up to reportCap.
func note(list *[]string, format string, args ...any) {
	if len(*list) < reportCap {
		*list = append(*list, fmt.Sprintf(format, args...))
	}
}

// AddCompositeIndex registers a composite index and backfills it. Writers
// maintain the index from its registration on, so they conform to the
// on-going backfill (§IV-D1). The documents pass then adds the entries
// the existing documents imply, the entries pass removes any the index
// holds from before (an earlier incarnation of the same definition), and
// the index is marked ready for query planning. A document that does not
// decode fails the build and leaves the index unready.
func (b *Backend) AddCompositeIndex(ctx context.Context, dbID string, def index.Definition) error {
	db, err := b.cat.Get(dbID)
	if err != nil {
		return err
	}
	if def.Kind != index.KindComposite {
		return status.Errorf(status.InvalidArgument, "backend", "%v is not a composite index", def)
	}
	db.AddComposite(def)
	w := &walk{db: db, fix: true, only: def.ID}
	if err := w.documents(ctx); err != nil {
		return fmt.Errorf("backfilling %v: %w", def, err)
	}
	if c := w.report.CorruptDocs; len(c) > 0 {
		return status.Errorf(status.Internal, "backend", "backfilling %v: a document does not decode (%s)", def, c[0])
	}
	if err := w.entries(ctx, index.IDPrefix(def.ID)); err != nil {
		return fmt.Errorf("backfilling %v: %w", def, err)
	}
	db.FinishBackfill(def.ID)
	return nil
}

// RemoveCompositeIndex drops a composite definition and backremoves its
// entries: once it is unregistered, every entry in its range is an
// orphan.
func (b *Backend) RemoveCompositeIndex(ctx context.Context, dbID string, id uint64) error {
	db, err := b.cat.Get(dbID)
	if err != nil {
		return err
	}
	db.RemoveComposite(id)
	return (&walk{db: db, fix: true}).entries(ctx, index.IDPrefix(id))
}

// AddExemption excludes a field from automatic indexing and backremoves
// the field's automatic entries (ascending, descending and
// array-contains), as RemoveCompositeIndex does a composite's.
func (b *Backend) AddExemption(ctx context.Context, dbID, collection string, path doc.FieldPath) error {
	db, err := b.cat.Get(dbID)
	if err != nil {
		return err
	}
	db.AddExemption(collection, path)
	w := &walk{db: db, fix: true}
	for _, def := range []index.Definition{
		index.AutoDef(collection, path, index.Ascending),
		index.AutoDef(collection, path, index.Descending),
		index.ContainsDef(collection, path),
	} {
		if err := w.entries(ctx, index.IDPrefix(def.ID)); err != nil {
			return err
		}
	}
	return nil
}

// ValidateDatabase cross-checks a database's documents against its index
// entries in both directions, a batch at a time under shared locks:
// every document must decode (end-to-end checksum included) and have
// every index entry its fields imply; every IndexEntries row must be
// implied by the document it names.
func (b *Backend) ValidateDatabase(ctx context.Context, dbID string) (*ValidationReport, error) {
	w, err := b.reconcile(ctx, dbID, false)
	if err != nil {
		return nil, err
	}
	return &w.report, nil
}

// RepairIndexes fixes what a validation pass finds: missing entries are
// re-derived from documents and inserted, orphans are deleted. A corrupt
// document is left alone, and so are the entries that name it. It returns
// the number of mutations applied.
func (b *Backend) RepairIndexes(ctx context.Context, dbID string) (int, error) {
	w, err := b.reconcile(ctx, dbID, true)
	if err != nil {
		return 0, err
	}
	return w.fixes, nil
}

// reconcile runs both passes over the whole database.
func (b *Backend) reconcile(ctx context.Context, dbID string, fix bool) (*walk, error) {
	db, err := b.cat.Get(dbID)
	if err != nil {
		return nil, err
	}
	w := &walk{db: db, fix: fix}
	if err := w.documents(ctx); err != nil {
		return nil, err
	}
	return w, w.entries(ctx, nil)
}

// walk is one reconciliation of a database: what it may do, and what it
// found and fixed so far.
type walk struct {
	db     *catalog.Database
	fix    bool
	only   uint64 // when set, the documents pass checks only this index's entries
	report ValidationReport
	fixes  int
}

// documents is the documents pass.
func (w *walk) documents(ctx context.Context) error {
	lo, hi := w.db.EntityRange(nil, nil)
	return batches(ctx, w.db.Spanner, lo, hi, false, func(txn *spanner.Txn, docs []spanner.LockedRow) error {
		if err := txn.LockRead(ctx, docs); err != nil {
			return err
		}
		meta := w.db.Meta()
		var entries []spanner.LockedRow
		var names [][]byte
		for _, r := range docs {
			if !r.OK {
				continue // deleted since the scan
			}
			w.report.Documents++
			d, err := rowDoc(r.BatchGet, doc.Name{})
			if err != nil {
				note(&w.report.CorruptDocs, "%x: %v", r.Key, err)
				continue
			}
			name := []byte(d.Name.String()) // shared by the document's rows, never modified
			for _, e := range w.implied(d, meta) {
				if w.only == 0 || e.ID == w.only {
					entries = append(entries, spanner.LockedRow{Key: e.Key, Exclusive: w.fix})
					names = append(names, name)
				}
			}
		}
		if err := txn.LockRead(ctx, entries); err != nil {
			return err
		}
		for i, e := range entries {
			if !e.OK {
				note(&w.report.MissingEntries, "%x", w.db.StripIndexKey(e.Key))
				if w.fix {
					txn.Put(e.Key, names[i])
					w.fixes++
				}
			}
		}
		return nil
	})
}

// entries is the entries pass over the IndexEntries rows behind prefix,
// or over all of them for a nil prefix.
func (w *walk) entries(ctx context.Context, prefix []byte) error {
	lo, hi := w.db.IndexRange(prefix, encoding.PrefixSuccessor(prefix))
	return batches(ctx, w.db.Spanner, lo, hi, true, func(txn *spanner.Txn, entries []spanner.LockedRow) error {
		// A row's value is the name of its document; a row that names no
		// document is an orphan whatever the documents hold.
		var docs []spanner.LockedRow
		of := make([]int, len(entries)) // entries[i] names docs[of[i]], or none at -1
		for i := range entries {
			of[i] = -1
			if n, err := doc.ParseName(string(entries[i].Value)); err == nil {
				of[i] = len(docs)
				docs = append(docs, spanner.LockedRow{Key: w.db.EntityKey(n)})
			}
			entries[i].Exclusive = w.fix
		}
		if err := txn.LockRead(ctx, docs); err != nil {
			return err
		}
		if err := txn.LockRead(ctx, entries); err != nil {
			return err
		}
		meta := w.db.Meta()
		for i, e := range entries {
			if !e.OK {
				continue // deleted since the scan
			}
			w.report.IndexEntries++
			if j := of[i]; j >= 0 {
				d, err := rowDoc(docs[j].BatchGet, doc.Name{})
				if err != nil {
					// The document is what is broken, not its entries: the
					// documents pass reports it.
					continue
				}
				if _, ok := slices.BinarySearchFunc(w.implied(d, meta), e.Key, func(x index.Entry, k []byte) int { return bytes.Compare(x.Key, k) }); ok {
					continue
				}
			}
			note(&w.report.OrphanEntries, "%x", w.db.StripIndexKey(e.Key))
			if w.fix {
				txn.Delete(e.Key)
				w.fixes++
			}
		}
		return nil
	})
}

// implied returns the IndexEntries rows a document implies under meta,
// sorted by key; none for an absent document.
func (w *walk) implied(d *doc.Document, meta *catalog.Meta) []index.Entry {
	_, es := index.DiffEntries(nil, nil, w.db.IndexPrefix(), nil, d, meta.Composites, &meta.Exemptions)
	return es
}

// batches runs fn over the rows of [lo, hi) a batch at a time, each batch
// in its own transaction, which fn locks and writes and batches commits
// (or aborts, if fn fails). A batch is read by a strong snapshot scan
// that resumes after the last row of the batch before, so the walk's
// memory is one batch. A row's value is kept only if values is set; fn
// may keep and modify the rows.
func batches(ctx context.Context, sp *spanner.DB, lo, hi []byte, values bool, fn func(*spanner.Txn, []spanner.LockedRow) error) error {
	for {
		var rows []spanner.LockedRow
		err := sp.SnapshotScan(ctx, lo, hi, sp.StrongReadTimestamp(), false, func(r spanner.ScanRow) bool {
			row := spanner.LockedRow{Key: slices.Clone(r.Key)}
			if values {
				row.Value = slices.Clone(r.Value)
			}
			rows = append(rows, row)
			return len(rows) < reconcileBatch
		})
		if err != nil || len(rows) == 0 {
			return err
		}
		txn := sp.Begin()
		if err := fn(txn, rows); err != nil {
			txn.Abort()
			return err
		}
		if _, err := txn.Commit(ctx, 0, 0); err != nil || len(rows) < reconcileBatch {
			return err
		}
		lo = storage.KeyAfter(rows[len(rows)-1].Key)
	}
}
