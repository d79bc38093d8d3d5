package firestore

import (
	"context"
	"errors"
	"slices"

	"firestore/internal/query"
	"firestore/internal/status"
	"firestore/internal/truetime"
)

// ErrIteratorDone is returned by DocumentIterator.Next when the result
// set is exhausted. It is terminal: every subsequent Next returns it
// again. It is a control-flow sentinel like io.EOF, not a failure, so it
// deliberately carries no status code (it never crosses the wire or a
// retry decision).
var ErrIteratorDone = errors.New("firestore: iterator done") //fslint:ignore statusdiscipline io.EOF-style control-flow sentinel, not an RPC failure

// DocumentIterator streams a query's results page by page, following the
// engine's partial-result resumption (§IV-C) underneath so callers never
// see the MaxResultSize page boundary. Callers must invoke Stop when done
// iterating early; GetAll stops the iterator itself.
type DocumentIterator struct {
	c      *Client
	ctx    context.Context
	iq     *query.Query
	err    error // sticky: build error, RPC error, or ErrIteratorDone
	buf    []*DocumentSnapshot
	resume []byte
	noMore bool // no page follows; buf may still hold docs
}

// Next returns the next result in query order. It returns ErrIteratorDone
// when there are no more; once any error is returned the iterator is
// spent.
func (it *DocumentIterator) Next() (*DocumentSnapshot, error) {
	if it.err != nil {
		return nil, it.err
	}
	for len(it.buf) == 0 {
		if it.noMore {
			it.err = ErrIteratorDone
			return nil, it.err
		}
		if err := it.fetchPage(); err != nil {
			it.err = err
			return nil, it.err
		}
	}
	d := it.buf[0]
	it.buf = it.buf[1:]
	return d, nil
}

// Stop releases the iterator. Subsequent Next calls return
// ErrIteratorDone. It is safe to call Stop multiple times or after Next
// returned an error.
func (it *DocumentIterator) Stop() {
	if it.err == nil {
		it.err = ErrIteratorDone
	}
	it.buf = nil
}

// GetAll drains the iterator and returns every remaining result as one
// slice (the pre-iterator Documents behavior). The iterator is stopped
// afterwards.
func (it *DocumentIterator) GetAll() ([]*DocumentSnapshot, error) {
	defer it.Stop()
	var out []*DocumentSnapshot
	for {
		d, err := it.Next()
		if errors.Is(err, ErrIteratorDone) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(slices.Grow(out, 1+len(it.buf)), d) // by the page, not per append
	}
}

// fetchPage pulls the next page from the region into buf: the page the
// last one's token names, at the snapshot and within the limit it
// carries.
func (it *DocumentIterator) fetchPage() error {
	var res *query.Result
	var readTS truetime.Timestamp
	err := status.Retry(it.ctx, maxRPCAttempts, func() error {
		var err error
		res, readTS, err = it.c.region.RunQuery(it.ctx, it.c.dbID, it.c.p, it.iq, it.resume, 0)
		return err
	})
	if err != nil {
		return err
	}
	// The page's snapshots are one allocation.
	snaps := make([]resultSnap, len(res.Docs))
	it.buf = slices.Grow(it.buf, len(res.Docs))
	for i, d := range res.Docs {
		it.buf = append(it.buf, snaps[i].set(it.c, d, readTS))
	}
	if res.Resume == nil {
		it.noMore = true
	} else {
		it.resume = res.Resume
	}
	return nil
}
