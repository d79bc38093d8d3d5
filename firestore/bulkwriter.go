package firestore

import (
	"context"
	"sync"
	"time"

	"firestore/internal/backend"
	"firestore/internal/ramp"
	"firestore/internal/status"
	"firestore/internal/truetime"
)

// ErrBulkWriterEnded reports an operation on a BulkWriter after End.
var ErrBulkWriterEnded = status.New(status.FailedPrecondition, "firestore", "BulkWriter has been ended")

// BulkWriter defaults.
const (
	// bulkMaxBatchSize is how many ops coalesce into one CommitBulk.
	bulkMaxBatchSize = 20
	// bulkMaxInFlight bounds concurrent batch commits.
	bulkMaxInFlight = 10
	// bulkFlushInterval bounds how long a partial batch may sit waiting
	// for more ops before it is sent anyway.
	bulkFlushInterval = 2 * time.Millisecond
)

// BulkWriterOptions tunes a BulkWriter. The zero value gives the
// defaults: batches of 20 ops, 10 batch commits in flight, and admission
// ramped by the paper's 500/50/5 conforming-traffic rule.
type BulkWriterOptions struct {
	// MaxBatchSize is the op count that triggers an immediate batch
	// send. Default 20.
	MaxBatchSize int
	// MaxInFlight bounds concurrently committing batches. Default 10.
	MaxInFlight int
	// RampRule overrides the admission ramp (zero fields default to the
	// published 500 QPS base, +50% per 5 minutes).
	RampRule ramp.Rule
	// DisableThrottling turns the admission ramp off entirely, for
	// harnesses measuring raw pipeline throughput.
	DisableThrottling bool
}

// BulkWriterJob is the handle returned for each enqueued op. Results
// blocks until the op resolves.
type BulkWriterJob struct {
	op      backend.WriteOp
	attempt int
	backoff status.Backoff

	done chan struct{}
	ts   truetime.Timestamp
	err  error
}

// Results blocks until the op has committed (returning its commit time)
// or failed terminally (returning the error).
func (j *BulkWriterJob) Results() (time.Time, error) {
	<-j.done
	if j.err != nil {
		return time.Time{}, j.err
	}
	return tsTime(j.ts), nil
}

// BulkWriter streams independent single-document writes to the backend
// with high throughput: ops coalesce into batches which commit through
// the backend's tablet-grouped bulk path, several batches in flight at
// once, with admission ramped per the conforming-traffic rule and per-op
// retries on retryable status codes. Enqueue methods do not block on the
// network (only on backpressure when too many ops are unresolved); each
// returns a job whose Results resolves to that op's own outcome.
//
// A BulkWriter provides no atomicity across ops — use WriteBatch or a
// transaction for all-or-nothing semantics.
type BulkWriter struct {
	c       *Client
	ctx     context.Context
	opts    BulkWriterOptions
	limiter *ramp.Limiter // nil when throttling is disabled
	sem     chan struct{} // in-flight batch slots

	mu      sync.Mutex
	cond    *sync.Cond // signals: pending dropped, or drain finished
	queue   []*BulkWriterJob
	pending int // enqueued ops not yet resolved (queued, in flight, or backing off)
	ended   bool
	timer   *time.Timer // pending partial-batch flush
}

// BulkWriter returns a bulk writer with default options. Writes may
// begin committing immediately; call Flush or End to drain.
func (c *Client) BulkWriter(ctx context.Context) *BulkWriter {
	return c.BulkWriterWithOptions(ctx, BulkWriterOptions{})
}

// BulkWriterWithOptions is BulkWriter with explicit tuning.
func (c *Client) BulkWriterWithOptions(ctx context.Context, opts BulkWriterOptions) *BulkWriter {
	if opts.MaxBatchSize <= 0 {
		opts.MaxBatchSize = bulkMaxBatchSize
	}
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = bulkMaxInFlight
	}
	bw := &BulkWriter{
		c:    c,
		ctx:  ctx,
		opts: opts,
		sem:  make(chan struct{}, opts.MaxInFlight),
	}
	if !opts.DisableThrottling {
		bw.limiter = ramp.NewLimiter(opts.RampRule, nil)
	}
	bw.cond = sync.NewCond(&bw.mu)
	return bw
}

// Set enqueues a create-or-replace of dr.
func (bw *BulkWriter) Set(dr *DocumentRef, data map[string]any) (*BulkWriterJob, error) {
	return bw.enqueue(dr, backend.OpSet, data)
}

// Create enqueues a create, which fails with AlreadyExists if dr exists.
func (bw *BulkWriter) Create(dr *DocumentRef, data map[string]any) (*BulkWriterJob, error) {
	return bw.enqueue(dr, backend.OpCreate, data)
}

// Update enqueues a replace of an existing document, which fails with
// NotFound if dr is missing.
func (bw *BulkWriter) Update(dr *DocumentRef, data map[string]any) (*BulkWriterJob, error) {
	return bw.enqueue(dr, backend.OpUpdate, data)
}

// Delete enqueues a delete (idempotent).
func (bw *BulkWriter) Delete(dr *DocumentRef) (*BulkWriterJob, error) {
	return bw.enqueue(dr, backend.OpDelete, nil)
}

// maxPending is the backpressure bound on unresolved ops: enough to keep
// every in-flight slot fed with a full next batch, without letting an
// unbounded enqueue loop outrun the backend.
func (bw *BulkWriter) maxPending() int {
	return bw.opts.MaxBatchSize * bw.opts.MaxInFlight * 2
}

func (bw *BulkWriter) enqueue(dr *DocumentRef, kind backend.OpKind, data map[string]any) (*BulkWriterJob, error) {
	op, err := dr.op(kind, data)
	if err != nil {
		return nil, err
	}
	j := &BulkWriterJob{op: op, done: make(chan struct{})}
	bw.mu.Lock()
	defer bw.mu.Unlock()
	for !bw.ended && bw.pending >= bw.maxPending() {
		bw.cond.Wait() // backpressure: resolve some ops first
	}
	if bw.ended {
		return nil, ErrBulkWriterEnded
	}
	bw.pending++
	bw.queue = append(bw.queue, j)
	bw.kickLocked()
	return j, nil
}

// kickLocked sends every full batch in the queue and arms the flush
// timer for any partial remainder.
func (bw *BulkWriter) kickLocked() {
	for len(bw.queue) >= bw.opts.MaxBatchSize {
		bw.sendLocked(bw.opts.MaxBatchSize)
	}
	if len(bw.queue) > 0 && bw.timer == nil {
		bw.timer = time.AfterFunc(bulkFlushInterval, bw.onFlushTimer)
	}
}

func (bw *BulkWriter) onFlushTimer() {
	bw.mu.Lock()
	defer bw.mu.Unlock()
	bw.timer = nil
	if len(bw.queue) > 0 {
		bw.sendLocked(len(bw.queue))
	}
}

// sendLocked pops up to n queued jobs into a batch and commits it on its
// own goroutine.
func (bw *BulkWriter) sendLocked(n int) {
	if n > len(bw.queue) {
		n = len(bw.queue)
	}
	if n == 0 {
		return
	}
	batch := make([]*BulkWriterJob, n)
	copy(batch, bw.queue)
	bw.queue = append(bw.queue[:0], bw.queue[n:]...)
	if len(bw.queue) == 0 && bw.timer != nil {
		bw.timer.Stop()
		bw.timer = nil
	}
	go bw.commitBatch(batch)
}

func (bw *BulkWriter) commitBatch(batch []*BulkWriterJob) {
	// Admission: the ramp limiter charges one token per op, so batch
	// sends conform to the 500/50/5 rule regardless of batch shape.
	if bw.limiter != nil {
		if err := bw.limiter.Acquire(bw.ctx, len(batch)); err != nil {
			bw.finishBatch(batch, nil, status.FromContext("firestore", err))
			return
		}
	}
	bw.sem <- struct{}{} // in-flight slot
	defer func() { <-bw.sem }()

	ops := make([]backend.WriteOp, len(batch))
	for i, j := range batch {
		ops[i] = j.op
	}
	p := bw.c.p
	p.Batch = true // schedule under the low-weight batch key
	res, err := bw.c.region.CommitBulk(bw.ctx, bw.c.dbID, p, ops)
	bw.finishBatch(batch, res, err)
}

// finishBatch resolves or re-enqueues each job. reqErr, when non-nil,
// applies to every op (res is ignored).
func (bw *BulkWriter) finishBatch(batch []*BulkWriterJob, res []backend.BulkResult, reqErr error) {
	for i, j := range batch {
		var ts truetime.Timestamp
		err := reqErr
		if reqErr == nil {
			ts, err = res[i].TS, res[i].Err
		}
		if err != nil && status.Retryable(status.CodeOf(err)) && j.attempt+1 < maxRPCAttempts {
			bw.scheduleRetry(j)
			continue
		}
		j.ts, j.err = ts, err
		close(j.done)
		bw.mu.Lock()
		bw.pending--
		bw.cond.Broadcast()
		bw.mu.Unlock()
	}
}

// scheduleRetry re-enqueues j after a jittered exponential backoff. The
// op stays pending throughout, so Flush and End wait for its final
// outcome.
func (bw *BulkWriter) scheduleRetry(j *BulkWriterJob) {
	j.attempt++
	time.AfterFunc(j.backoff.Next(), func() {
		bw.mu.Lock()
		defer bw.mu.Unlock()
		// Retries of already-admitted ops run even after End: the drain
		// owes every enqueued op a final outcome.
		bw.queue = append(bw.queue, j)
		bw.kickLocked()
	})
}

// Flush sends any buffered partial batch and blocks until every op
// enqueued so far has resolved (committed, terminally failed, or
// exhausted its retries).
func (bw *BulkWriter) Flush() {
	bw.mu.Lock()
	defer bw.mu.Unlock()
	bw.sendLocked(len(bw.queue))
	for bw.pending > 0 {
		bw.cond.Wait()
	}
}

// End flushes, waits for the drain, and permanently closes the writer:
// subsequent enqueues (and End itself) fail with ErrBulkWriterEnded,
// carrying status FailedPrecondition.
func (bw *BulkWriter) End() error {
	bw.mu.Lock()
	if bw.ended {
		bw.mu.Unlock()
		return ErrBulkWriterEnded
	}
	bw.ended = true
	bw.cond.Broadcast() // release any backpressured enqueuers
	bw.mu.Unlock()
	bw.Flush()
	return nil
}
