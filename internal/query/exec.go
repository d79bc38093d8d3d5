package query

import (
	"context"
	"fmt"
	"slices"

	"firestore/internal/doc"
	"firestore/internal/encoding"
	"firestore/internal/storage"
)

// Storage is what the executor needs from the storage layer. The backend
// implements it over the Spanner IndexEntries and Entities tables; the
// benchmark's query probe implements it over sorted in-memory slices.
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
	// Scans counts the storage scans the execution made: its ScanIndex
	// calls, or the one ScanCollection of an Entities plan.
	Scans int
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

// executeEntitiesScan serves a bare collection query (no predicates, no
// order) straight from the Entities table, which is already in name
// order; every visited document counts as scan work.
func (p *Plan) executeEntitiesScan(ctx context.Context, st Storage, resume []byte, offset, limit int) (*Result, error) {
	res := &Result{Scans: 1}
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
	res := &Result{Docs: make([]*doc.Document, 0, min(limit, storage.NextScanChunk(0)))}
	finalize := func() *Result {
		res.ScannedEntries, res.Scans = scanTotals(iters)
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

// scanTotals sums the index entries the iterators read and the scans
// they made.
func scanTotals(iters []*scanIter) (entries, scans int) {
	for _, it := range iters {
		entries += it.scanned
		scans += it.scans
	}
	return entries, scans
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
//
// Refills are sized as the engines below stage their chunks
// (storage.NextScanChunk), so a refill takes every row a chunk read: a
// zig-zag leg's first refill, and its first after a jump, is the first
// chunk, and a leg read on sequentially doubles. A single scan's first
// refill is what the query can return (limit + offset).
type scanIter struct {
	st      Storage
	scan    *Scan
	buf     []entry
	head    int    // buf[head:] is unconsumed
	want    int    // size of the refill in flight
	batch   int    // size of the next refill
	last    []byte // last key read; a refill resumes after it
	lo      []byte // scratch: a refill's lower bound
	eof     bool
	scanned int
	scans   int // ScanIndex calls made
	// visit is the refill's callback, bound once per iterator: a literal
	// per refill escapes through Storage.
	visit func(key, value []byte) bool
}

type entry struct {
	suffix, name []byte
}

// newScanIters returns one iterator per scan of the plan; want is the
// number of entries a single-scan plan expects to consume (a join's legs
// ignore it).
func (p *Plan) newScanIters(st Storage, want int) []*scanIter {
	first := storage.NextScanChunk(0)
	if len(p.Scans) == 1 {
		first = min(want, storage.MaxScanChunk)
	}
	iters := make([]*scanIter, len(p.Scans))
	for i := range p.Scans {
		it := &scanIter{st: st, scan: &p.Scans[i], batch: first}
		it.visit = func(key, value []byte) bool {
			it.buf = append(it.buf, entry{suffix: key[len(it.scan.Prefix):], name: value})
			it.last = key
			return len(it.buf) < it.want
		}
		iters[i] = it
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
			it.batch = storage.NextScanChunk(0)
		}
		it.lo = append(append(it.lo[:0], it.scan.Prefix...), target...)
		lo = it.lo
	}
	it.want, it.batch = it.batch, storage.NextScanChunk(it.batch)
	it.buf, it.head = slices.Grow(it.buf[:0], it.want), 0
	err := it.st.ScanIndex(ctx, lo, it.scan.Hi, it.visit)
	it.scans++
	it.scanned += len(it.buf)
	it.eof = len(it.buf) < it.want
	return err
}
