package query

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"

	"firestore/internal/doc"
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
	// Resume restarts the query after the last returned document. It is
	// set when the page filled, even if no result follows (the next page
	// is then empty), and nil when the query ran out before the page
	// filled.
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
	q := p.Query
	limit := q.Limit
	if limit <= 0 || limit > MaxResultSize {
		limit = MaxResultSize
	}
	offset := q.Offset
	if resume != nil {
		offset = 0
	}
	// Cursor bounds apply before the offset and need the document; without
	// cursors, an index row the offset skips is never fetched.
	hasCursor := q.Start != nil || q.End != nil
	res := &Result{Docs: make([]*doc.Document, 0, min(limit, storage.NextScanChunk(0)))}
	// names is the page's arena for its index entries' names (DESIGN.md
	// "Read path: who owns the bytes"); a fetched document has its own.
	var names strings.Builder
	var ferr, err error
	res.ScannedEntries, res.Scans, err = p.walk(ctx, st, resume, func(pos, name []byte, d *doc.Document) bool {
		if d == nil {
			if offset > 0 && !hasCursor {
				offset--
				return true
			}
			if d, ferr = p.fetch(ctx, st, arenaString(&names, name, cap(res.Docs))); d == nil {
				return ferr == nil // an entry whose document is gone is skipped
			}
		}
		// The walk is in the query's order, so the first document past the
		// end cursor ends the query.
		switch {
		case q.BeforeStart(d):
			return true
		case q.PastEnd(d):
			return false
		case offset > 0:
			offset--
			return true
		}
		res.Docs = append(res.Docs, q.Project(d))
		if len(res.Docs) < limit {
			return true
		}
		if pos != nil {
			res.Resume = append([]byte(nil), pos...)
		} else {
			res.Resume = []byte(d.Name.ID())
		}
		return false
	})
	if err == nil {
		err = ferr
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// walk streams the plan's result rows to visit, in the query's order,
// until visit returns false or the rows run out. An index row comes as
// its position — the join suffix past the scan prefix (sort values +
// escaped document ID), which a resume token names — and the named
// document's name, with d nil. An Entities row comes as its document,
// with pos and name nil. A non-nil resume starts the walk after that
// position (a document ID for an Entities plan). walk returns the rows
// it read and the storage scans it made, also with an error, so the work
// done before a failure is still billed.
//
// An Entities plan pushes the collection's documents, already in name
// order, from one ScanCollection; a single index scan pushes its entries
// from one ScanIndex; a zig-zag join pulls its legs through scanIters.
func (p *Plan) walk(ctx context.Context, st Storage, resume []byte, visit func(pos, name []byte, d *doc.Document) bool) (entries, scans int, err error) {
	// Each push branch counts in a local of its own: a variable an
	// escaping callback captures lives on the heap, and the join need not
	// pay for it.
	if p.Scans[0].Def.ID == 0 {
		n := 0
		err = st.ScanCollection(ctx, p.Query.Collection, string(resume), func(d *doc.Document) bool {
			n++
			return visit(nil, nil, d)
		})
		return n, 1, err
	}
	if len(p.Scans) == 1 {
		sc := &p.Scans[0]
		lo := sc.Lo
		if resume != nil {
			// The successor of the resume key, unless the range starts later.
			if after := append(append(append([]byte(nil), sc.Prefix...), resume...), 0); bytes.Compare(after, lo) > 0 {
				lo = after
			}
		}
		n := 0
		err = st.ScanIndex(ctx, lo, sc.Hi, func(key, value []byte) bool {
			n++
			return visit(key[len(sc.Prefix):], value, nil)
		})
		return n, 1, err
	}
	iters := p.newScanIters(st)
	var candidate []byte
	if resume != nil {
		candidate = storage.KeyAfter(resume)
	}
	for {
		pos, name, ok, err := nextHit(ctx, iters, candidate)
		if err != nil || !ok || !visit(pos, name, nil) {
			for _, it := range iters {
				entries += it.scanned
				scans += it.scans
			}
			return entries, scans, err
		}
		candidate = append(append(candidate[:0], pos...), 0) // Successor, in place
	}
}

// nextHit advances the zig-zag join over iters to its first hit at or
// after candidate (nil = the first) and returns the hit's join suffix and
// document name. It peeks every iterator at >= candidate: all-equal heads
// are a hit, otherwise the max head becomes the next candidate (the
// "zig") and the laggards re-seek to it (the "zag"). ok is false once
// some range is exhausted.
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
			case bytes.Compare(s, suffix) > 0:
				allEqual = false
				suffix, name = s, n
			case bytes.Compare(s, suffix) < 0:
				allEqual = false
			}
		}
		if allEqual {
			return suffix, name, true, nil
		}
		candidate = suffix
	}
}

// arenaString copies b into arena a and returns the copy. A full arena is
// replaced, not regrown, by one twice its size (the first holds n strings
// the size of b), so no string already cut from it is copied again.
func arenaString(a *strings.Builder, b []byte, n int) string {
	if a.Cap()-a.Len() < len(b) {
		size := max(2*a.Cap(), n*len(b))
		a.Reset()
		a.Grow(size)
	}
	at := a.Len()
	a.Write(b)
	return a.String()[at:]
}

func (p *Plan) fetch(ctx context.Context, st Storage, name string) (*doc.Document, error) {
	n, err := doc.ParseName(name)
	if err != nil {
		return nil, fmt.Errorf("query: corrupt index entry value %q: %w", name, err)
	}
	return st.GetDocument(ctx, n)
}

// scanIter pulls one zig-zag leg's index range: a bounded buffer of its
// entries, refilled from where the last refill stopped or, when a seek
// jumps further, from the seek target. Entries alias the delivered keys
// and values, which are immutable.
//
// Refills are sized as the engines below stage their chunks
// (storage.NextScanChunk), so a refill takes every row a chunk read: a
// leg's first refill, and its first after a jump, is the first chunk,
// and a leg read on sequentially doubles.
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

// newScanIters returns one iterator per leg of a zig-zag plan.
func (p *Plan) newScanIters(st Storage) []*scanIter {
	iters := make([]*scanIter, len(p.Scans))
	for i := range p.Scans {
		it := &scanIter{st: st, scan: &p.Scans[i], batch: storage.NextScanChunk(0)}
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
		for it.head < len(it.buf) && target != nil && bytes.Compare(it.buf[it.head].suffix, target) < 0 {
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
	if target != nil && bytes.Compare(target, lo[len(it.scan.Prefix):]) > 0 {
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
