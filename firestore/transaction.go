package firestore

import (
	"context"

	"firestore/internal/backend"
	"firestore/internal/status"
	"firestore/internal/truetime"
)

// Transaction is an optimistic read-write transaction: reads record the
// observed document versions; at commit every read is revalidated for
// freshness and the buffered writes apply atomically, or the whole
// function is retried (§III-E: "With transactions, all data read by the
// transaction is revalidated for freshness at the time of the commit; the
// transaction is retried if the data fails the freshness check").
type Transaction struct {
	c      *Client
	ctx    context.Context
	readTS truetime.Timestamp
	reads  []backend.ReadValidation
	seen   map[string]bool
	ops    []backend.WriteOp
	opIdx  map[string]int
}

// MaxTransactionRetries bounds the automatic retry loop.
const MaxTransactionRetries = 8

// RunTransaction runs fn, committing its buffered writes with read
// revalidation. A conflict (Aborted), shed load (ResourceExhausted) or
// transient unavailability — at commit or from a read inside fn — re-runs
// the whole function against a fresh snapshot under status.Retry; any
// other error, fn's own included, ends the transaction.
func (c *Client) RunTransaction(ctx context.Context, fn func(tx *Transaction) error) error {
	return status.Retry(ctx, MaxTransactionRetries, func() error {
		tx := &Transaction{c: c, ctx: ctx, seen: map[string]bool{}, opIdx: map[string]int{}}
		if err := fn(tx); err != nil {
			return err
		}
		_, err := c.region.CommitTransactional(ctx, c.dbID, c.p, tx.ops, tx.reads)
		return err
	})
}

// Get reads a document inside the transaction, recording its version for
// commit-time revalidation. All reads within one attempt observe a single
// consistent snapshot.
func (tx *Transaction) Get(dr *DocumentRef) (*DocumentSnapshot, error) {
	s, err := dr.fetch(tx.ctx, tx.readTS)
	if err != nil {
		return nil, err
	}
	if tx.readTS == 0 {
		tx.readTS = truetime.Timestamp(s.ReadTime.UnixNano())
	}
	if key := dr.name.String(); !tx.seen[key] {
		tx.seen[key] = true
		tx.reads = append(tx.reads, backend.ReadValidation{Name: dr.name, UpdateTime: s.updateTS}) // zero: absent
	}
	return s, nil
}

// Set buffers a create-or-replace.
func (tx *Transaction) Set(dr *DocumentRef, data map[string]any) error {
	return tx.buffer(dr, backend.OpSet, data)
}

// Create buffers a create (fails at commit if the document exists).
func (tx *Transaction) Create(dr *DocumentRef, data map[string]any) error {
	return tx.buffer(dr, backend.OpCreate, data)
}

// Update buffers a replace of an existing document.
func (tx *Transaction) Update(dr *DocumentRef, data map[string]any) error {
	return tx.buffer(dr, backend.OpUpdate, data)
}

// Delete buffers a delete.
func (tx *Transaction) Delete(dr *DocumentRef) error {
	return tx.buffer(dr, backend.OpDelete, nil)
}

func (tx *Transaction) buffer(dr *DocumentRef, kind backend.OpKind, data map[string]any) error {
	op, err := dr.op(kind, data)
	if err != nil {
		return err
	}
	key := dr.name.String()
	if i, ok := tx.opIdx[key]; ok {
		tx.ops[i] = op // last write to a doc wins within the txn
		return nil
	}
	tx.opIdx[key] = len(tx.ops)
	tx.ops = append(tx.ops, op)
	return nil
}

// ErrBatchCommitted reports reuse of a WriteBatch after Commit.
var ErrBatchCommitted = status.New(status.FailedPrecondition, "firestore", "WriteBatch has already been committed")

// WriteBatch accumulates blind writes applied atomically by Commit; no
// reads, no revalidation ("last update wins", §III-E). A batch is
// single-use: adding ops or committing again after a Commit attempt
// fails with ErrBatchCommitted rather than silently re-sending.
type WriteBatch struct {
	c         *Client
	ops       []backend.WriteOp
	committed bool
	err       error
}

// Batch starts a write batch.
func (c *Client) Batch() *WriteBatch { return &WriteBatch{c: c} }

// Set appends a create-or-replace.
func (b *WriteBatch) Set(dr *DocumentRef, data map[string]any) *WriteBatch {
	return b.add(dr, backend.OpSet, data)
}

// Create appends a create.
func (b *WriteBatch) Create(dr *DocumentRef, data map[string]any) *WriteBatch {
	return b.add(dr, backend.OpCreate, data)
}

// Update appends a replace of an existing document.
func (b *WriteBatch) Update(dr *DocumentRef, data map[string]any) *WriteBatch {
	return b.add(dr, backend.OpUpdate, data)
}

// Delete appends a delete.
func (b *WriteBatch) Delete(dr *DocumentRef) *WriteBatch {
	return b.add(dr, backend.OpDelete, nil)
}

func (b *WriteBatch) add(dr *DocumentRef, kind backend.OpKind, data map[string]any) *WriteBatch {
	if b.err != nil {
		return b
	}
	if b.committed {
		b.err = ErrBatchCommitted
		return b
	}
	op, err := dr.op(kind, data)
	if err != nil {
		b.err = err
		return b
	}
	b.ops = append(b.ops, op)
	return b
}

// Commit applies the batch atomically, retrying transient failures
// (blind writes are last-update-wins, so re-applying a batch is safe).
func (b *WriteBatch) Commit(ctx context.Context) error {
	if b.err != nil {
		return b.err
	}
	if b.committed {
		return ErrBatchCommitted
	}
	b.committed = true
	if len(b.ops) == 0 {
		return nil
	}
	return status.Retry(ctx, maxRPCAttempts, func() error {
		_, err := b.c.region.Commit(ctx, b.c.dbID, b.c.p, b.ops)
		return err
	})
}
