package reqctx

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"firestore/internal/status"
)

// tracedCtx builds a context with a fresh recorder + tracer configured
// to keep everything via head sampling.
func tracedCtx(t *testing.T, cfg TracerConfig) (context.Context, *Recorder, *Tracer) {
	t.Helper()
	rec := NewRecorder()
	tz := NewTracer(cfg)
	rec.SetTracer(tz)
	ctx := WithRecorder(context.Background(), rec)
	return ctx, rec, tz
}

func TestTraceHierarchy(t *testing.T) {
	ctx, _, tz := tracedCtx(t, TracerConfig{SampleProb: 1})
	ctx = With(ctx, Meta{RequestID: "req-1", DB: "mydb"})

	ctx1, endRoot := StartSpan(ctx, "frontend.commit")
	if got := TraceID(ctx1); got != "req-1" {
		t.Fatalf("TraceID = %q, want req-1", got)
	}
	ctx2, endW := StartSpan(ctx1, "wfq.submit")
	ctx3, endB := StartSpan(ctx2, "backend.commit")
	Annotate(ctx3, "tablet", "t-42")
	_, endS := StartSpan(ctx3, "spanner.txn.commit")
	endS(nil)
	endB(nil)
	endW(nil)
	endRoot(nil)

	traces := tz.Recent(KeepSampled, 0)
	if len(traces) != 1 {
		t.Fatalf("sampled traces = %d, want 1", len(traces))
	}
	td := traces[0]
	if td.ID != "req-1" || td.DB != "mydb" {
		t.Fatalf("trace meta = %+v", td)
	}
	if len(td.Spans) != 4 {
		t.Fatalf("spans = %d, want 4", len(td.Spans))
	}
	// Parent chain: frontend -> wfq -> backend -> spanner.
	byName := map[string]SpanData{}
	for _, s := range td.Spans {
		byName[s.Name] = s
	}
	if byName["frontend.commit"].ParentID != 0 {
		t.Fatal("frontend.commit should be the root")
	}
	if byName["wfq.submit"].ParentID != byName["frontend.commit"].ID {
		t.Fatal("wfq.submit should nest under frontend.commit")
	}
	if byName["backend.commit"].ParentID != byName["wfq.submit"].ID {
		t.Fatal("backend.commit should nest under wfq.submit")
	}
	if byName["spanner.txn.commit"].ParentID != byName["backend.commit"].ID {
		t.Fatal("spanner.txn.commit should nest under backend.commit")
	}
	if got := td.Attr("tablet"); got != "t-42" {
		t.Fatalf("tablet attr = %q", got)
	}
	if td.Op() != "frontend.commit" {
		t.Fatalf("Op = %q", td.Op())
	}
	// Child durations are bounded by the root.
	for _, s := range td.Spans {
		if s.Duration > td.Duration {
			t.Fatalf("span %s duration %v exceeds trace %v", s.Name, s.Duration, td.Duration)
		}
	}
	if st := tz.Stats(); st.Started != 1 || st.Kept != 1 || st.Active != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTraceKeepPolicies(t *testing.T) {
	// Sampling off: an OK fast trace is dropped, an error trace and a
	// slow trace are always kept.
	ctx, _, tz := tracedCtx(t, TracerConfig{SampleProb: -1, SlowThreshold: 30 * time.Millisecond})

	_, end := StartSpan(ctx, "frontend.get")
	end(nil)
	if got := len(tz.Recent(KeepSampled, 0)) + len(tz.Recent(KeepSlow, 0)) + len(tz.Recent(KeepError, 0)); got != 0 {
		t.Fatalf("fast OK trace kept: %d", got)
	}

	ctx1, endRoot := StartSpan(ctx, "frontend.get")
	_, endInner := StartSpan(ctx1, "backend.get")
	endInner(status.Errorf(status.NotFound, "test", "missing"))
	endRoot(nil)
	errs := tz.Recent(KeepError, 0)
	if len(errs) != 1 || !errs[0].Error {
		t.Fatalf("error traces = %+v", errs)
	}

	_, endSlow := StartSpan(ctx, "frontend.query")
	time.Sleep(35 * time.Millisecond)
	endSlow(nil)
	slow := tz.Recent(KeepSlow, 0)
	if len(slow) != 1 || !slow[0].Slow {
		t.Fatalf("slow traces = %+v", slow)
	}
}

func TestTraceRingEvictionOrder(t *testing.T) {
	ctx, _, tz := tracedCtx(t, TracerConfig{SampleProb: 1})
	const n = ringSize + 6
	for i := 0; i < n; i++ {
		c := With(ctx, Meta{RequestID: fmt.Sprintf("req-%02d", i), DB: "d"})
		_, end := StartSpan(c, "frontend.put")
		end(nil)
	}
	got := tz.Recent(KeepSampled, 0)
	if len(got) != ringSize {
		t.Fatalf("ring size = %d, want %d", len(got), ringSize)
	}
	// Newest first; the oldest six were evicted in FIFO order.
	for i := range got {
		if want := fmt.Sprintf("req-%02d", n-1-i); got[i].ID != want {
			t.Fatalf("Recent[%d] = %s, want %s", i, got[i].ID, want)
		}
	}
	if limited := tz.Recent(KeepSampled, 2); len(limited) != 2 || limited[0].ID != got[0].ID {
		t.Fatalf("Recent(2) = %+v", limited)
	}
}

func TestTracerActiveRequests(t *testing.T) {
	ctx, _, tz := tracedCtx(t, TracerConfig{SampleProb: 1})
	ctx = With(ctx, Meta{RequestID: "rid", DB: "mydb"})
	ctx1, endRoot := StartSpan(ctx, "frontend.commit")
	_, endInner := StartSpan(ctx1, "spanner.txn.commit")

	act := tz.Active()
	if len(act) != 1 {
		t.Fatalf("active = %d, want 1", len(act))
	}
	if act[0].ID != "rid" || act[0].Op != "frontend.commit" || act[0].Layer != "spanner.txn.commit" {
		t.Fatalf("active request = %+v", act[0])
	}
	if act[0].Spans != 2 || act[0].Age <= 0 {
		t.Fatalf("active request = %+v", act[0])
	}

	endInner(nil)
	endRoot(nil)
	if got := tz.Active(); len(got) != 0 {
		t.Fatalf("active after end = %+v", got)
	}
}

func TestTraceMaxSpansCap(t *testing.T) {
	ctx, _, tz := tracedCtx(t, TracerConfig{SampleProb: 1})
	ctx1, endRoot := StartSpan(ctx, "frontend.bulk")
	for i := 0; i < maxSpans+7; i++ {
		_, end := StartSpan(ctx1, "backend.commit")
		end(nil)
	}
	endRoot(nil)
	td := tz.Recent(KeepSampled, 1)[0]
	if len(td.Spans) != maxSpans {
		t.Fatalf("spans = %d, want capped at %d", len(td.Spans), maxSpans)
	}
	if td.Dropped != 8 { // the root took one slot
		t.Fatalf("dropped = %d, want 8", td.Dropped)
	}
}

func TestRecorderRegistryPerDB(t *testing.T) {
	rec, reg := newRecorder()
	ctx := WithRecorder(context.Background(), rec)
	for _, db := range []string{"alpha", "beta"} {
		c := With(ctx, Meta{DB: db})
		for i := 0; i < 5; i++ {
			_, end := StartSpan(c, "backend.commit")
			end(nil)
		}
	}
	if got := spanCount(reg, "backend.commit", "alpha", status.OK); got != 5 {
		t.Fatalf("alpha count = %d, want 5", got)
	}
	if got := spanCount(reg, "backend.commit", "beta", status.OK); got != 5 {
		t.Fatalf("beta count = %d, want 5", got)
	}
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	if want := `firestore_backend_commit_latency_seconds_count{code="OK",db="alpha"} 5`; !strings.Contains(buf.String(), want) {
		t.Fatalf("prometheus output missing %q", want)
	}
}

func TestSlowLog(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	sink := NewSlowLog(&buf, 10*time.Millisecond)
	ctx, _, _ := tracedCtx(t, TracerConfig{
		SampleProb:    1,
		SlowThreshold: 10 * time.Millisecond,
		OnKeep:        func(td TraceData) { mu.Lock(); sink(td); mu.Unlock() },
	})
	ctx = With(ctx, Meta{RequestID: "slow-1", DB: "mydb"})

	// Fast trace: below the log threshold, no line.
	_, endFast := StartSpan(ctx, "frontend.get")
	endFast(nil)

	ctx1, endRoot := StartSpan(ctx, "frontend.query")
	Annotate(ctx1, "shape", "collection=users order=age limit=10")
	_, endInner := StartSpan(ctx1, "backend.query")
	time.Sleep(15 * time.Millisecond)
	endInner(nil)
	endRoot(nil)

	mu.Lock()
	out := buf.String()
	mu.Unlock()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 1 {
		t.Fatalf("slow log lines = %d, want 1: %q", len(lines), out)
	}
	var line map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &line); err != nil {
		t.Fatalf("slow log line not JSON: %v", err)
	}
	if line["trace_id"] != "slow-1" || line["db"] != "mydb" || line["op"] != "frontend.query" {
		t.Fatalf("slow log line = %v", line)
	}
	if line["shape"] != "collection=users order=age limit=10" {
		t.Fatalf("shape = %v", line["shape"])
	}
	layers, ok := line["layers_ms"].(map[string]any)
	if !ok || layers["backend.query"] == nil || layers["frontend.query"] == nil {
		t.Fatalf("layers_ms = %v", line["layers_ms"])
	}
}

// TestConcurrentStartSpanEnd hammers one tracer from many goroutines,
// with nested spans, error ends, and concurrent scrapes of every read
// path. Run under -race.
func TestConcurrentStartSpanEnd(t *testing.T) {
	rec, reg := newRecorder()
	tz := NewTracer(TracerConfig{SampleProb: 0.5})
	rec.SetTracer(tz)
	base := WithRecorder(context.Background(), rec)

	const workers = 8
	const perWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ctx := With(base, Meta{RequestID: NewRequestID(), DB: fmt.Sprintf("db-%d", w%3)})
				ctx1, endRoot := StartSpan(ctx, "frontend.commit")
				ctx2, endW := StartSpan(ctx1, "wfq.submit")
				Annotate(ctx2, "key", "v")
				_, endB := StartSpan(ctx2, "backend.commit")
				var err error
				if i%7 == 0 {
					err = status.Errorf(status.Aborted, "test", "contention")
				}
				endB(err)
				endW(err)
				endRoot(err)
			}
		}(w)
	}
	// Scrape every read path while writers run.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false
		default:
		}
		tz.Recent(KeepSampled, 0)
		tz.Recent(KeepError, 0)
		tz.Active()
		tz.Stats()
		var buf bytes.Buffer
		reg.WritePrometheus(&buf)
		reg.Snapshot()
	}

	st := tz.Stats()
	if st.Started != workers*perWorker {
		t.Fatalf("started = %d, want %d", st.Started, workers*perWorker)
	}
	if st.Active != 0 {
		t.Fatalf("active = %d, want 0", st.Active)
	}
	if got := len(tz.Recent(KeepError, 0)); got != ringSize {
		t.Fatalf("error ring = %d, want full %d", got, ringSize)
	}
	var commits uint64
	for _, h := range reg.Snapshot().Histograms {
		if h.Name == "backend.commit" {
			commits += h.Count
		}
	}
	if commits != workers*perWorker {
		t.Fatalf("backend.commit count = %d, want %d", commits, workers*perWorker)
	}
}

func TestSpanWithoutTracerStillRecords(t *testing.T) {
	rec, reg := newRecorder()
	ctx := WithRecorder(context.Background(), rec)
	c, end := StartSpan(ctx, "backend.get")
	if TraceID(c) != "" {
		t.Fatal("no tracer should mean no trace ID")
	}
	Annotate(c, "k", "v") // must be a safe no-op
	end(nil)
	if spanCount(reg, "backend.get", "", status.OK) != 1 {
		t.Fatal("histogram not recorded without tracer")
	}
}

// TestSpanAllocs pins the bookkeeping cost of one write's four spans
// (frontend -> wfq -> backend -> spanner) wired as core.OpenRegion wires
// them: registry + tracer attached, head sampling off, every code OK.
// The budget is the trace tree alone (trace, four spans, four contexts,
// four end closures): a seen (span, db, code) costs the metrics path
// nothing — no Labels map, no registry lookup — and a trace that will
// not be kept is never snapshotted.
func TestSpanAllocs(t *testing.T) {
	rec, reg := newRecorder()
	tz := NewTracer(TracerConfig{SampleProb: -1})
	rec.SetTracer(tz)
	ctx := With(WithRecorder(context.Background(), rec), Meta{RequestID: "rid", DB: "app"})
	write := func() {
		c1, end1 := StartSpan(ctx, "frontend.commit")
		c2, end2 := StartSpan(c1, "wfq.submit")
		c3, end3 := StartSpan(c2, "backend.commit")
		_, end4 := StartSpan(c3, "spanner.txn.commit")
		end4(nil)
		end3(nil)
		end2(nil)
		end1(nil)
	}
	write() // mint the four handles
	if got := testing.AllocsPerRun(200, write); got > 21 {
		t.Fatalf("four-span write = %v allocs, want <= 21", got)
	}
	if got := spanCount(reg, "spanner.txn.commit", "app", status.OK); got != 202 {
		t.Fatalf("spanner.txn.commit count = %d, want 202", got)
	}
	if st := tz.Stats(); st.Kept != 0 || st.Active != 0 {
		t.Fatalf("tracer stats = %+v, want nothing kept or active", st)
	}
}
