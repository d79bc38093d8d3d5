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
	reg := obs.NewRegistry()
	return NewRecorder(reg), reg
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

// TestSpanWithoutRecorderRecordsNowhere: on a context without a
// Recorder, StartSpan hands back the context itself and a zero Span, and
// neither allocates nor lands in any registry or trace.
func TestSpanWithoutRecorderRecordsNowhere(t *testing.T) {
	ctx := With(context.Background(), Meta{RequestID: "rid", DB: "app"})
	rec, reg := newRecorder()
	rec.SetTracer(NewTracer(TracerConfig{SampleProb: 1}))
	var events int
	rec.SetTrace(func(TraceEvent) { events++ })
	lost := errors.New("lost")
	allocs := testing.AllocsPerRun(100, func() {
		sctx, span := StartSpan(ctx, "backend.commit")
		if sctx != ctx || span != (Span{}) {
			t.Fatalf("StartSpan without a recorder = (%v, %+v), want (ctx, Span{})", sctx, span)
		}
		Annotate(sctx, "k", "v")
		span.End(lost)
	})
	if allocs != 0 {
		t.Fatalf("a span without a recorder allocates %v times, want 0", allocs)
	}
	if TraceID(ctx) != "" || events != 0 || len(reg.Snapshot().Histograms) != 0 {
		t.Fatalf("trace %q, %d events, histograms %+v: want none", TraceID(ctx), events, reg.Snapshot().Histograms)
	}
}

func TestTraceEvents(t *testing.T) {
	rec := NewRecorder(obs.NewRegistry())
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
