package firestore

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"firestore/internal/backend"
	"firestore/internal/core"
	"firestore/internal/fault"
	"firestore/internal/ramp"
	"firestore/internal/status"
)

func newClientWithConfig(t *testing.T, cfg core.Config) *Client {
	t.Helper()
	region := core.NewRegion(cfg)
	t.Cleanup(region.Close)
	if _, err := region.CreateDatabase("app"); err != nil {
		t.Fatal(err)
	}
	return NewClient(region, "app")
}

// arm injects a fault for the rest of the test. The fault registry is
// process-wide: tests that arm it must not run in parallel.
func arm(t *testing.T, spec fault.Spec) {
	t.Helper()
	if err := fault.Enable(spec); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fault.Disable(spec.Site) })
}

// fastRamp keeps test BulkWriters from crawling at default token fill.
var fastRamp = ramp.Rule{BaseQPS: 100000, GrowthFactor: 1.5, Period: time.Minute}

func TestBulkWriterCommitsAll(t *testing.T) {
	c := newClient(t)
	ctx := context.Background()
	bw := c.BulkWriterWithOptions(ctx, BulkWriterOptions{RampRule: fastRamp})

	const n = 75
	jobs := make([]*BulkWriterJob, n)
	for i := 0; i < n; i++ {
		j, err := bw.Set(c.Collection("bulk").Doc(fmt.Sprintf("d%03d", i)), map[string]any{"i": i})
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	if err := bw.End(); err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		ts, err := j.Results()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if ts.IsZero() {
			t.Fatalf("job %d: zero commit time", i)
		}
	}
	docs, err := c.Collection("bulk").GetAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != n {
		t.Fatalf("landed %d docs, want %d", len(docs), n)
	}
}

func TestBulkWriterPerOpErrors(t *testing.T) {
	c := newClient(t)
	ctx := context.Background()
	if err := c.Collection("b").Doc("exists").Set(ctx, map[string]any{"v": 1}); err != nil {
		t.Fatal(err)
	}
	bw := c.BulkWriterWithOptions(ctx, BulkWriterOptions{RampRule: fastRamp})

	jCreate, err := bw.Create(c.Collection("b").Doc("exists"), map[string]any{"v": 2})
	if err != nil {
		t.Fatal(err)
	}
	jUpdate, err := bw.Update(c.Collection("b").Doc("missing"), map[string]any{"v": 3})
	if err != nil {
		t.Fatal(err)
	}
	jSet, err := bw.Set(c.Collection("b").Doc("fine"), map[string]any{"v": 4})
	if err != nil {
		t.Fatal(err)
	}
	bw.Flush()

	if _, err := jCreate.Results(); status.CodeOf(err) != status.AlreadyExists {
		t.Errorf("create-existing: %v, want AlreadyExists", err)
	}
	if _, err := jUpdate.Results(); status.CodeOf(err) != status.NotFound {
		t.Errorf("update-missing: %v, want NotFound", err)
	}
	if _, err := jSet.Results(); err != nil {
		t.Errorf("independent set failed alongside: %v", err)
	}
	// The writer is still usable after Flush (only End closes it).
	if _, err := bw.Delete(c.Collection("b").Doc("fine")); err != nil {
		t.Errorf("enqueue after Flush: %v", err)
	}
	if err := bw.End(); err != nil {
		t.Fatal(err)
	}
}

// TestBulkWriterRetriesUntilSuccess injects retryable failures into the
// backend's bulk group commit and checks ops retry through them to
// success, per-op.
func TestBulkWriterRetriesUntilSuccess(t *testing.T) {
	for _, code := range []status.Code{status.Aborted, status.Unavailable} {
		t.Run(code.String(), func(t *testing.T) {
			c := newClient(t)
			// The group commit loses its replication quorum three times.
			arm(t, fault.Spec{Site: fault.SpannerCommitQuorum, Mode: fault.ModeError, Code: code, MaxCount: 3})
			bw := c.BulkWriterWithOptions(context.Background(), BulkWriterOptions{RampRule: fastRamp})
			j, err := bw.Set(c.Collection("r").Doc("x"), map[string]any{"v": 1})
			if err != nil {
				t.Fatal(err)
			}
			bw.Flush()
			if _, err := j.Results(); err != nil {
				t.Fatalf("op did not retry to success: %v", err)
			}
			if n := fault.Injected(fault.SpannerCommitQuorum); n != 3 {
				t.Fatalf("injection not consumed: fired %d of 3", n)
			}
			snap, err := c.Collection("r").Doc("x").Get(context.Background())
			if err != nil || !snap.Exists() {
				t.Fatalf("doc missing after retried bulk write: %v", err)
			}
		})
	}
}

// TestBulkWriterRetriesExhausted checks a persistently failing op
// surfaces the final retryable error instead of hanging Flush.
func TestBulkWriterRetriesExhausted(t *testing.T) {
	c := newClient(t)
	arm(t, fault.Spec{Site: fault.SpannerCommitQuorum, Mode: fault.ModeError})
	bw := c.BulkWriterWithOptions(context.Background(), BulkWriterOptions{RampRule: fastRamp})
	j, err := bw.Set(c.Collection("r").Doc("x"), map[string]any{"v": 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := bw.End(); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Results(); status.CodeOf(err) != status.Unavailable {
		t.Fatalf("exhausted retries: err = %v, want Unavailable", err)
	}
}

func TestBulkWriterLifecycle(t *testing.T) {
	c := newClient(t)
	ctx := context.Background()

	t.Run("enqueue after End", func(t *testing.T) {
		bw := c.BulkWriterWithOptions(ctx, BulkWriterOptions{RampRule: fastRamp})
		if err := bw.End(); err != nil {
			t.Fatal(err)
		}
		for name, op := range map[string]func() (*BulkWriterJob, error){
			"Set":    func() (*BulkWriterJob, error) { return bw.Set(c.Collection("l").Doc("a"), map[string]any{}) },
			"Create": func() (*BulkWriterJob, error) { return bw.Create(c.Collection("l").Doc("b"), map[string]any{}) },
			"Update": func() (*BulkWriterJob, error) { return bw.Update(c.Collection("l").Doc("c"), map[string]any{}) },
			"Delete": func() (*BulkWriterJob, error) { return bw.Delete(c.Collection("l").Doc("d")) },
		} {
			if _, err := op(); status.CodeOf(err) != status.FailedPrecondition {
				t.Errorf("%s after End: err = %v, want FailedPrecondition", name, err)
			}
		}
	})
	t.Run("double End", func(t *testing.T) {
		bw := c.BulkWriterWithOptions(ctx, BulkWriterOptions{RampRule: fastRamp})
		if err := bw.End(); err != nil {
			t.Fatal(err)
		}
		if err := bw.End(); status.CodeOf(err) != status.FailedPrecondition {
			t.Errorf("second End: err = %v, want FailedPrecondition", err)
		}
	})
	t.Run("WriteBatch reuse after Commit", func(t *testing.T) {
		b := c.Batch().Set(c.Collection("l").Doc("w"), map[string]any{"v": 1})
		if err := b.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		if err := b.Commit(ctx); status.CodeOf(err) != status.FailedPrecondition {
			t.Errorf("re-Commit: err = %v, want FailedPrecondition", err)
		}
		if err := b.Set(c.Collection("l").Doc("w2"), map[string]any{"v": 2}).Commit(ctx); status.CodeOf(err) != status.FailedPrecondition {
			t.Errorf("add-after-Commit: err = %v, want FailedPrecondition", err)
		}
		// Failed commits also consume the batch: retry means rebuild.
		b2 := c.Batch()
		if err := b2.Commit(ctx); err != nil { // empty commit is a no-op...
			t.Fatal(err)
		}
		if err := b2.Commit(ctx); status.CodeOf(err) != status.FailedPrecondition { // ...but still single-use
			t.Errorf("empty re-Commit: err = %v, want FailedPrecondition", err)
		}
	})
}

// TestWriteBatchAtomicAcrossTablets commits batches spanning tablets
// concurrently and checks all-or-nothing visibility: both documents of a
// batch always agree at any single snapshot timestamp.
func TestWriteBatchAtomicAcrossTablets(t *testing.T) {
	c := newClientWithConfig(t, core.Config{MaxTabletRows: 16})
	ctx := context.Background()

	// Spread rows to trip size-based splitting so the two target docs
	// land on different tablets.
	for i := 0; i < 64; i++ {
		err := c.Collection("pad").Doc(fmt.Sprintf("%c%02d", 'a'+i%26, i)).Set(ctx, map[string]any{"x": i})
		if err != nil {
			t.Fatal(err)
		}
	}
	refA := c.Collection("atomic").Doc("aaaa")
	refZ := c.Collection("atomic").Doc("zzzz")
	if err := c.Batch().Set(refA, map[string]any{"v": 0}).Set(refZ, map[string]any{"v": 0}).Commit(ctx); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var writerWG sync.WaitGroup
	for w := 0; w < 4; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 1; i < 25; i++ {
				v := w*1000 + i
				err := c.Batch().
					Set(refA, map[string]any{"v": v}).
					Set(refZ, map[string]any{"v": v}).
					Commit(ctx)
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	go func() { writerWG.Wait(); close(stop) }()

	priv := backend.Principal{Privileged: true}
	for {
		select {
		case <-stop:
			return
		default:
		}
		// Strong-read A to pick a snapshot timestamp, then read Z at
		// that same timestamp: an atomic batch can never be half-visible.
		dA, rts, err := c.region.GetDocument(ctx, c.dbID, priv, refA.name, 0)
		if err != nil {
			t.Fatal(err)
		}
		dZ, _, err := c.region.GetDocument(ctx, c.dbID, priv, refZ.name, rts)
		if err != nil {
			t.Fatal(err)
		}
		va, vz := dA.Fields["v"].IntVal(), dZ.Fields["v"].IntVal()
		if va != vz {
			t.Fatalf("torn batch at snapshot %d: a=%d z=%d", rts, va, vz)
		}
	}
}

// TestBulkWriterBackpressure checks enqueue blocks rather than queueing
// unboundedly when the backend cannot keep up.
func TestBulkWriterBackpressure(t *testing.T) {
	c := newClient(t)
	bw := c.BulkWriterWithOptions(context.Background(), BulkWriterOptions{
		MaxBatchSize: 2,
		MaxInFlight:  1,
		RampRule:     ramp.Rule{BaseQPS: 50, GrowthFactor: 1.5, Period: time.Hour},
	})
	defer bw.End()
	done := make(chan struct{})
	go func() {
		defer close(done)
		// maxPending = 2*1*2 = 4; well past it, enqueue must block on
		// the ~50 QPS admission ramp instead of buffering everything.
		for i := 0; i < 30; i++ {
			if _, err := bw.Set(c.Collection("bp").Doc(fmt.Sprint(i)), map[string]any{"i": i}); err != nil {
				t.Errorf("enqueue %d: %v", i, err)
				return
			}
		}
	}()
	select {
	case <-done:
		t.Fatal("30 enqueues at 50 QPS returned immediately; backpressure missing")
	case <-time.After(100 * time.Millisecond):
	}
	<-done // eventually admitted
}

func TestBulkWriterResultsOrdering(t *testing.T) {
	// Results on an already-resolved job returns immediately with the
	// same values, and errors.Is works through the job error.
	c := newClient(t)
	bw := c.BulkWriterWithOptions(context.Background(), BulkWriterOptions{RampRule: fastRamp})
	j, err := bw.Update(c.Collection("o").Doc("nope"), map[string]any{"v": 1})
	if err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	_, err1 := j.Results()
	_, err2 := j.Results()
	if !errors.Is(err1, backend.ErrNotFound) || !errors.Is(err2, backend.ErrNotFound) {
		t.Fatalf("Results = %v / %v, want ErrNotFound both times", err1, err2)
	}
}
