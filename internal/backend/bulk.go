package backend

import (
	"context"
	"sync"

	"firestore/internal/reqctx"
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
// scheduler slot for its whole duration.
//
// The returned slice has one entry per op, in op order. Per-op failures
// (preconditions, size limits, rules denials) are reported individually
// without failing the ops sharing the group; transient group failures
// (scheduler shedding, cache prepare, commit window) fail every op in
// that group, typically with a retryable code. The error return is
// reserved for request-level failures such as an unknown database.
func (b *Backend) CommitBulk(ctx context.Context, dbID string, p Principal, ops []WriteOp) (_ []BulkResult, retErr error) {
	ctx, span := reqctx.StartSpan(ctx, "backend.bulkcommit")
	defer func() { span.End(retErr) }()
	db, err := b.cat.Get(dbID)
	if err != nil {
		return nil, err
	}
	results := make([]BulkResult, len(ops))
	groups := groupByTablet(ops, func(op WriteOp) int {
		return db.Spanner.TabletIndex(db.EntityKey(op.Name))
	})
	key := b.schedKey(dbID, p)
	// A panic in a group is recovered there and re-raised here, on the
	// caller's goroutine, as a single commit's would be (net/http's
	// per-request recover sees it); on a group goroutine it would kill
	// the process.
	panics := make([]any, len(groups))
	var wg sync.WaitGroup
	for gi, g := range groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { panics[gi] = recover() }()
			opErrs := make([]error, len(g.ops))
			var ts truetime.Timestamp
			cerr := b.submit(ctx, db, "backend.bulkgroup", key, b.cfg.Costs.Write(dbID, len(g.ops)), func(ctx context.Context) error {
				var gerr error
				ts, gerr = b.commitOps(ctx, db, p, g.ops, nil, opErrs)
				return gerr
			})
			// Scatter the group outcome back to the ops' batch positions
			// (disjoint across groups, so no locking needed).
			for j, i := range g.indexes {
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
	for _, r := range panics {
		if r != nil {
			panic(r)
		}
	}
	return results, nil
}

// tabletGroup is the part of a bulk batch bound for one tablet: its ops in
// batch order, and each op's position in the batch so per-op results can
// be scattered back.
type tabletGroup struct {
	ops     []WriteOp
	indexes []int
}

// groupByTablet partitions ops by tabletOf, in first-seen order, so each
// group can commit in its own single-participant transaction instead of
// one batch-wide 2PC.
func groupByTablet(ops []WriteOp, tabletOf func(WriteOp) int) (groups []tabletGroup) {
	at := map[int]int{} // tablet index -> position in groups
	for i, op := range ops {
		t := tabletOf(op)
		if _, ok := at[t]; !ok {
			at[t] = len(groups)
			groups = append(groups, tabletGroup{})
		}
		g := &groups[at[t]]
		g.ops, g.indexes = append(g.ops, op), append(g.indexes, i)
	}
	return groups
}
