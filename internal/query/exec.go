package query

import (
	"context"
	"fmt"

	"firestore/internal/doc"
	"firestore/internal/encoding"
)

// Storage is what the executor needs from the storage layer. The backend
// implements it over the Spanner IndexEntries and Entities tables; the
// mobile SDK implements it over the client's local cache.
type Storage interface {
	// ScanIndex iterates IndexEntries rows with lo <= key < hi in key
	// order. The row value is the named document's full textual name.
	// fn returning false stops the scan, and the work done follows the
	// rows delivered, not the range. lo is not retained past the call;
	// key and value are immutable, so fn may keep or slice them.
	ScanIndex(ctx context.Context, lo, hi []byte, fn func(key, value []byte) bool) error
	// ScanCollection iterates the documents directly inside c in name
	// order, starting after startAfterID when non-empty.
	ScanCollection(ctx context.Context, c doc.CollectionPath, startAfterID string, fn func(*doc.Document) bool) error
	// GetDocument returns the document, or (nil, nil) when absent.
	GetDocument(ctx context.Context, name doc.Name) (*doc.Document, error)
}

// Result is an executed query's output: ordered documents plus a resume
// token for fetching the next page (§IV-C: "Firestore APIs support
// returning partial results for a query as well as resuming a
// partially-executed query").
type Result struct {
	Docs []*doc.Document
	// Resume restarts the query after the last returned document; nil
	// when the result set was exhausted.
	Resume []byte
	// ScannedEntries counts index entries visited (plan cost metric).
	ScannedEntries int
}

// MaxResultSize bounds the documents one execution returns ("we limit the
// result-set size and the amount of work done for a single RPC", §IV-C).
const MaxResultSize = 1000

// Execute runs the plan against storage. resume, when non-nil, continues
// a previous partial execution. The offset applies only to the first
// page.
func (p *Plan) Execute(ctx context.Context, st Storage, resume []byte) (*Result, error) {
	limit := p.Query.Limit
	if limit <= 0 || limit > MaxResultSize {
		limit = MaxResultSize
	}
	offset := p.Query.Offset
	if resume != nil {
		offset = 0
	}
	if p.Scans[0].Def.ID == 0 {
		return p.executeEntitiesScan(ctx, st, resume, offset, limit)
	}
	return p.executeIndexScans(ctx, st, resume, offset, limit)
}

// executeEntitiesScan serves a collection query straight from the
// Entities table, which is already in name order. Cost-based plans may
// route predicated queries here (full scan + residual filter), so every
// visited document counts as scan work and the query's predicates are
// re-applied per document.
func (p *Plan) executeEntitiesScan(ctx context.Context, st Storage, resume []byte, offset, limit int) (*Result, error) {
	res := &Result{}
	startAfter := string(resume)
	truncated := false
	err := st.ScanCollection(ctx, p.Query.Collection, startAfter, func(d *doc.Document) bool {
		res.ScannedEntries++
		// Cursor bounds apply before offset/limit accounting: the scan is
		// in name order, which is the bare collection query's effective
		// order, so the first past-end document ends the scan.
		if p.Query.BeforeStart(d) {
			return true
		}
		if p.Query.PastEnd(d) {
			return false
		}
		if !p.Query.matchesResidual(d) {
			return true
		}
		if offset > 0 {
			offset--
			return true
		}
		if len(res.Docs) == limit {
			truncated = true
			return false
		}
		res.Docs = append(res.Docs, p.Query.Project(d))
		return true
	})
	if err != nil {
		return nil, err
	}
	if truncated && len(res.Docs) > 0 {
		res.Resume = []byte(res.Docs[len(res.Docs)-1].Name.ID())
	}
	return res, nil
}

// executeIndexScans runs the single-index or zig-zag join path: advance
// iterators over each scan's range, emit documents whose join suffix
// (sort values + document ID) appears in every range.
func (p *Plan) executeIndexScans(ctx context.Context, st Storage, resume []byte, offset, limit int) (*Result, error) {
	iters := p.newScanIters(st, limit+offset)
	var candidate []byte
	if resume != nil {
		candidate = encoding.Successor(resume)
	}
	res := &Result{}
	finalize := func() *Result {
		res.ScannedEntries = scannedEntries(iters)
		return res
	}
	for {
		suffix, name, ok, err := nextHit(ctx, iters, candidate)
		if err != nil {
			return nil, err
		}
		if !ok {
			return finalize(), nil // some range exhausted: done
		}
		// Join hit: emit. Cursor bounds apply before offset/limit
		// accounting and need the document fetched; without cursors,
		// offset skipping stays fetch-free. Index scans emit in
		// effective-sort order, so the first past-end document ends the
		// query.
		hasCursor := p.Query.Start != nil || p.Query.End != nil
		if offset > 0 && !hasCursor {
			offset--
		} else {
			d, err := p.fetch(ctx, st, string(name))
			if err != nil {
				return nil, err
			}
			switch {
			case d == nil || p.Query.BeforeStart(d):
			case p.Query.PastEnd(d):
				return finalize(), nil
			case offset > 0:
				offset--
			default:
				res.Docs = append(res.Docs, p.Query.Project(d))
				if len(res.Docs) == limit {
					res.Resume = append([]byte(nil), suffix...)
					return finalize(), nil
				}
			}
		}
		candidate = append(append(candidate[:0], suffix...), 0) // Successor, in place
	}
}

// nextHit advances the zig-zag join over iters to its first hit at or
// after candidate (nil = the first) and returns the hit's join suffix and
// document name. It peeks every iterator at >= candidate: all-equal heads
// are a hit, otherwise the max head becomes the next candidate (the
// "zig") and the laggards re-seek to it (the "zag"). ok is false once
// some range is exhausted. A single scan joins with itself: every entry
// is a hit.
func nextHit(ctx context.Context, iters []*scanIter, candidate []byte) (suffix, name []byte, ok bool, err error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, nil, false, err
		}
		allEqual := true
		suffix, name = nil, nil
		for _, it := range iters {
			s, n, ok, err := it.seek(ctx, candidate)
			if err != nil || !ok {
				return nil, nil, false, err
			}
			switch {
			case suffix == nil:
				suffix, name = s, n
			case compare(s, suffix) > 0:
				allEqual = false
				suffix, name = s, n
			case compare(s, suffix) < 0:
				allEqual = false
			}
		}
		if allEqual {
			return suffix, name, true, nil
		}
		candidate = suffix
	}
}

// scannedEntries sums the index entries the iterators read.
func scannedEntries(iters []*scanIter) int {
	n := 0
	for _, it := range iters {
		n += it.scanned
	}
	return n
}

// matchesResidual applies the query's predicates and order-existence
// requirements to a document, excluding cursor bounds (the scan applies
// those positionally).
func (q *Query) matchesResidual(d *doc.Document) bool {
	for _, p := range q.Predicates {
		if !matchPredicate(d, p) {
			return false
		}
	}
	for _, o := range q.EffectiveOrders() {
		if _, ok := d.Get(o.Path); !ok {
			return false
		}
	}
	return true
}

func (p *Plan) fetch(ctx context.Context, st Storage, name string) (*doc.Document, error) {
	n, err := doc.ParseName(name)
	if err != nil {
		return nil, fmt.Errorf("query: corrupt index entry value %q: %w", name, err)
	}
	return st.GetDocument(ctx, n)
}

// scanIter is the one pull adapter over the push scans below it: a
// bounded buffer of one index range's entries, refilled from where the
// last refill stopped or, when a zig-zag seek jumps further, from the
// seek target. Entries alias the delivered keys and values, which are
// immutable.
type scanIter struct {
	st      Storage
	scan    *Scan
	buf     []entry
	head    int    // buf[head:] is unconsumed
	batch   int    // size of the next refill
	last    []byte // last key read; a refill resumes after it
	lo      []byte // scratch: a refill's lower bound
	eof     bool
	scanned int
}

type entry struct {
	suffix, name []byte
}

// Refill sizes. A single scan's first refill is what the query can
// return (limit + offset); a zig-zag leg starts at iterBatchMin. Both
// double up to iterBatch while the leg is read on sequentially, and a
// jump starts small again.
const (
	iterBatchMin = 8
	iterBatch    = 64
)

// newScanIters returns one iterator per scan of the plan; want is the
// number of entries a single-scan plan expects to consume.
func (p *Plan) newScanIters(st Storage, want int) []*scanIter {
	first := iterBatchMin
	if len(p.Scans) == 1 {
		first = min(want, iterBatch)
	}
	iters := make([]*scanIter, len(p.Scans))
	for i := range p.Scans {
		iters[i] = &scanIter{st: st, scan: &p.Scans[i], batch: first}
	}
	return iters
}

// seek peeks at the first entry with suffix >= target (nil = first). The
// entry is not consumed: a subsequent seek with the same target returns
// it again, and a larger target drops it.
func (it *scanIter) seek(ctx context.Context, target []byte) (suffix, name []byte, ok bool, err error) {
	for {
		// Drop buffered entries below the target.
		for it.head < len(it.buf) && target != nil && compare(it.buf[it.head].suffix, target) < 0 {
			it.head++
		}
		if it.head < len(it.buf) {
			e := it.buf[it.head]
			return e.suffix, e.name, true, nil
		}
		if it.eof {
			return nil, nil, false, nil
		}
		if err := it.refill(ctx, target); err != nil {
			return nil, nil, false, err
		}
	}
}

func (it *scanIter) refill(ctx context.Context, target []byte) error {
	lo := it.scan.Lo
	if it.last != nil {
		it.lo = append(append(it.lo[:0], it.last...), 0)
		lo = it.lo
	}
	if target != nil && compare(target, lo[len(it.scan.Prefix):]) > 0 {
		if it.last != nil {
			it.batch = iterBatchMin
		}
		it.lo = append(append(it.lo[:0], it.scan.Prefix...), target...)
		lo = it.lo
	}
	n := it.batch
	it.batch = min(2*n, iterBatch)
	it.buf, it.head = it.buf[:0], 0
	err := it.st.ScanIndex(ctx, lo, it.scan.Hi, func(key, value []byte) bool {
		it.buf = append(it.buf, entry{suffix: key[len(it.scan.Prefix):], name: value})
		it.last = key
		return len(it.buf) < n
	})
	it.scanned += len(it.buf)
	it.eof = len(it.buf) < n
	return err
}
