package query

import (
	"context"

	"firestore/internal/doc"
)

// This file implements COUNT aggregation, the extension §VIII sketches:
// "a COUNT query returns a single value but may count millions of
// documents", so it executes entirely on the index (no document fetches)
// and the caller bills by the index work performed rather than the single
// result. SUM/AVG build on the same index-only walk in aggregate.go.

// CountResult is a COUNT execution's output.
type CountResult struct {
	Count int64
	// ScannedEntries is the index work performed — entries actually
	// visited, not results matched — the billing unit for aggregations
	// (§VIII: "such extensions cannot break the pay-as-you-go
	// billing").
	ScannedEntries int
}

// ExecuteCount counts the plan's result set without fetching any
// documents: single scans count index entries in range; zig-zag joins
// count join hits; Entities plans count rows passing the residual
// filter. On error (including context cancellation mid-join) the
// partial result is still returned so the entries already visited are
// billed.
func (p *Plan) ExecuteCount(ctx context.Context, st Storage) (*CountResult, error) {
	res := &CountResult{}
	visited, err := p.walkIndexOnly(ctx, st, func([]byte) bool {
		res.Count++
		return true
	})
	res.ScannedEntries = visited
	if err != nil {
		return res, err
	}
	applyOffsetLimit(res, p.Query)
	return res, nil
}

// walkIndexOnly runs the plan without fetching documents, calling emit
// once per result row: the join suffix past the scan prefix (sort
// values + escaped document ID) for index plans, nil for Entities rows.
// It reports the entries visited even when err != nil, so billing
// reflects the work performed before a failure or cancellation.
func (p *Plan) walkIndexOnly(ctx context.Context, st Storage, emit func(suffix []byte) bool) (visited int, err error) {
	// Entities plan: scan the collection, re-applying predicates when
	// the plan carries a residual filter.
	if p.Scans[0].Def.ID == 0 {
		err := st.ScanCollection(ctx, p.Query.Collection, "", func(d *doc.Document) bool {
			visited++
			if !p.Query.matchesResidual(d) {
				return true
			}
			return emit(nil)
		})
		return visited, err
	}
	// Single index scan: every row in range is a result.
	if len(p.Scans) == 1 {
		sc := p.Scans[0]
		err := st.ScanIndex(ctx, sc.Lo, sc.Hi, func(key, _ []byte) bool {
			visited++
			return emit(key[len(sc.Prefix):])
		})
		return visited, err
	}
	// Zig-zag join: Execute's join, skipping document fetches.
	iters := p.newScanIters(st, iterBatch)
	var candidate []byte
	for {
		suffix, _, ok, err := nextHit(ctx, iters, candidate)
		if err != nil || !ok || !emit(suffix) {
			return scannedEntries(iters), err
		}
		candidate = append(append(candidate[:0], suffix...), 0) // Successor, in place
	}
}

// applyOffsetLimit adjusts a raw count for the query's offset and limit
// (COUNT respects them, like the production aggregation API).
func applyOffsetLimit(res *CountResult, q *Query) {
	res.Count -= int64(q.Offset)
	if res.Count < 0 {
		res.Count = 0
	}
	if q.Limit > 0 && res.Count > int64(q.Limit) {
		res.Count = int64(q.Limit)
	}
}
