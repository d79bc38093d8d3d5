package reqctx

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"firestore/internal/obs"
	"firestore/internal/status"
)

func TestMetaRoundTrip(t *testing.T) {
	ctx := context.Background()
	if got := From(ctx); got != (Meta{}) {
		t.Fatalf("From(empty) = %+v, want zero", got)
	}
	m := Meta{RequestID: "abc123", DB: "app", QoS: Batch}
	ctx = With(ctx, m)
	if got := From(ctx); got != m {
		t.Fatalf("From = %+v, want %+v", got, m)
	}
	if got := RequestID(ctx); got != "abc123" {
		t.Fatalf("RequestID = %q", got)
	}
}

func TestNewRequestID(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewRequestID()
		if len(id) != 16 {
			t.Fatalf("request ID %q has length %d, want 16", id, len(id))
		}
		if seen[id] {
			t.Fatalf("duplicate request ID %q", id)
		}
		seen[id] = true
	}
}

func TestQoSString(t *testing.T) {
	if Latency.String() != "latency" || Batch.String() != "batch" {
		t.Fatalf("QoS strings = %q, %q", Latency, Batch)
	}
}

// newRecorder returns a recorder feeding its own fresh registry.
func newRecorder() (*Recorder, *obs.Registry) {
	rec, reg := NewRecorder(), obs.NewRegistry()
	rec.SetRegistry(reg)
	return rec, reg
}

// spanCount reads how many spans name{db, code} recorded, through the
// registry — the only place span latencies live.
func spanCount(reg *obs.Registry, name, db string, code status.Code) uint64 {
	labels := obs.Labels{"code": code.String()}
	if db != "" {
		labels["db"] = db
	}
	return reg.Histogram(name, labels).Snapshot().Count
}

func TestStartSpanRecords(t *testing.T) {
	rec, reg := newRecorder()
	ctx := WithRecorder(context.Background(), rec)

	_, end := StartSpan(ctx, "backend.commit")
	end.End(nil)
	_, end = StartSpan(ctx, "backend.commit")
	end.End(fmt.Errorf("conflict: %w", status.New(status.Aborted, "backend", "transaction conflict")))

	// One histogram per (span, code), and nothing else: a finished span
	// is recorded exactly once.
	hists := reg.Snapshot().Histograms
	if len(hists) != 2 {
		t.Fatalf("histograms = %+v, want backend.commit x {ABORTED, OK}", hists)
	}
	for i, code := range []string{"ABORTED", "OK"} {
		if h := hists[i]; h.Name != "backend.commit" || h.Labels["code"] != code || h.Count != 1 || len(h.Labels) != 1 {
			t.Fatalf("histogram %d = %+v, want backend.commit{code=%s} count 1", i, h, code)
		}
	}
}

func TestStartSpanUsesDefaultRecorder(t *testing.T) {
	const name = "reqctx_test.default_recorder"
	before := spanCount(obs.Default, name, "", status.OK) // -count=N reuses the process
	_, end := StartSpan(context.Background(), name)
	end.End(nil)
	if got := spanCount(obs.Default, name, "", status.OK) - before; got != 1 {
		t.Fatalf("obs.Default count grew by %d, want 1", got)
	}
}

// TestSetRegistryRepointsHandles: the handle cache belongs to one
// registry; after SetRegistry a seen (span, db, code) must land in the
// new registry, not in a handle minted from the old one.
func TestSetRegistryRepointsHandles(t *testing.T) {
	rec, first := newRecorder()
	ctx := With(WithRecorder(context.Background(), rec), Meta{DB: "app"})
	_, end := StartSpan(ctx, "x")
	end.End(nil)
	second := obs.NewRegistry()
	rec.SetRegistry(second)
	_, end = StartSpan(ctx, "x")
	end.End(nil)
	if a, b := spanCount(first, "x", "app", status.OK), spanCount(second, "x", "app", status.OK); a != 1 || b != 1 {
		t.Fatalf("counts = %d (first), %d (second), want 1 and 1", a, b)
	}
}

func TestTraceEvents(t *testing.T) {
	rec := NewRecorder()
	var events []TraceEvent
	rec.SetTrace(func(ev TraceEvent) { events = append(events, ev) })

	ctx := WithRecorder(context.Background(), rec)
	ctx = With(ctx, Meta{RequestID: "rid-1", DB: "app", QoS: Batch})
	_, end := StartSpan(ctx, "backend.query")
	time.Sleep(time.Millisecond)
	end.End(status.New(status.NotFound, "backend", "document not found"))

	if len(events) != 1 {
		t.Fatalf("trace events = %d, want 1", len(events))
	}
	ev := events[0]
	if ev.RequestID != "rid-1" || ev.DB != "app" || ev.QoS != Batch {
		t.Fatalf("trace meta = %+v", ev)
	}
	if ev.Span != "backend.query" || ev.Code != status.NotFound {
		t.Fatalf("trace span/code = %q/%v", ev.Span, ev.Code)
	}
	if ev.Duration <= 0 {
		t.Fatalf("trace duration = %v", ev.Duration)
	}
}

func TestStartSpanClassifiesContextErrors(t *testing.T) {
	rec, reg := newRecorder()
	ctx := WithRecorder(context.Background(), rec)
	_, end := StartSpan(ctx, "wfq.submit")
	end.End(fmt.Errorf("queued: %w", context.Canceled))
	if got := spanCount(reg, "wfq.submit", "", status.DeadlineExceeded); got != 1 {
		t.Fatalf("DeadlineExceeded count = %d, want 1", got)
	}
	if !errors.Is(fmt.Errorf("queued: %w", context.Canceled), context.Canceled) {
		t.Fatal("sanity: wrap lost identity")
	}
}
