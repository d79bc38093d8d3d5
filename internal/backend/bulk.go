package backend

import (
	"context"
	"sync"
	"time"

	"firestore/internal/reqctx"
	"firestore/internal/routing"
	"firestore/internal/truetime"
)

// BulkResult is one op's outcome from CommitBulk: the commit timestamp
// of the transaction that applied it, or the error that rejected it.
type BulkResult struct {
	TS  truetime.Timestamp
	Err error
}

// CommitBulk applies a batch of independent single-document writes with
// throughput rather than atomicity as the goal: ops are grouped by the
// tablet serving their Entities row and each tablet-local group commits
// in its own single-participant Spanner transaction, the groups running
// in parallel — no batch-wide 2PC, no cross-group atomicity. Each group
// is charged to the fair scheduler separately (under the batch-tagged
// key when p.Batch is set), so a large bulk batch cannot monopolize a
// worker slot for its whole duration.
//
// The returned slice has one entry per op, in op order. Per-op failures
// (preconditions, size limits, rules denials) are reported individually
// without failing the ops sharing the group; transient group failures
// (scheduler shedding, cache prepare, commit window) fail every op in
// that group, typically with a retryable code. The error return is
// reserved for request-level failures such as an unknown database.
func (b *Backend) CommitBulk(ctx context.Context, dbID string, p Principal, ops []WriteOp) (_ []BulkResult, retErr error) {
	ctx, end := reqctx.StartSpan(ctx, "backend.bulkcommit")
	defer func() { end(retErr) }()
	db, err := b.cat.Get(dbID)
	if err != nil {
		return nil, err
	}
	results := make([]BulkResult, len(ops))
	groups := routing.GroupByTablet(db.Spanner, ops, func(op WriteOp) []byte {
		return db.EntityKey(op.Name)
	})
	key := b.schedKey(dbID, p)
	var wg sync.WaitGroup
	for _, g := range groups {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cost time.Duration
			if b.cfg.Costs.Write != nil {
				cost = b.cfg.Costs.Write(dbID, len(g.Items))
			}
			opErrs := make([]error, len(g.Items))
			var ts truetime.Timestamp
			cerr := b.submit(ctx, "backend.bulkgroup", key, cost, func(ctx context.Context) error {
				var gerr error
				ts, gerr = b.commitOps(ctx, db, p, g.Items, nil, opErrs)
				return gerr
			})
			// Scatter the group outcome back to the ops' batch positions
			// (disjoint across groups, so no locking needed).
			for j, i := range g.Indexes {
				switch {
				case cerr != nil:
					results[i] = BulkResult{Err: cerr}
				case opErrs[j] != nil:
					results[i] = BulkResult{Err: opErrs[j]}
				default:
					results[i] = BulkResult{TS: ts}
				}
			}
		}()
	}
	wg.Wait()
	return results, nil
}
