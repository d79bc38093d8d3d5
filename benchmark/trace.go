package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"firestore/internal/core"
	"firestore/internal/reqctx"
)

// benchSpan is a span the benchmark records around one call into a
// layer: spans of one re-enacted request share Req and hang off a root
// span named req.read, req.write, req.query, req.notify or req.bulk.
type benchSpan struct {
	Req     string `json:"req"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// programSpan is a span the program itself recorded during the traced
// pass, as delivered to the recorder's trace sink.
type programSpan struct {
	Req     string `json:"req"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// maxProgramSpansWritten bounds the trace file; every span still counts
// towards the span.* metrics.
const maxProgramSpansWritten = 20000

// trace holds a traced pass's spans in memory until the run ends.
type trace struct {
	workload string
	seed     int64
	origin   time.Time

	mu      sync.Mutex
	bench   []benchSpan
	program []programSpan
}

func newTrace(workload string, seed int64) *trace {
	return &trace{workload: workload, seed: seed, origin: time.Now()}
}

type traceKey struct{}

// context routes the program's spans for requests made under the
// returned context to this trace: it installs the region's recorder (what
// the server does for every request) with this trace as its sink.
// Clients tag each request with an ID via request.
func (t *trace) context(ctx context.Context, r *core.Region) context.Context {
	r.Recorder.SetTrace(func(ev reqctx.TraceEvent) {
		t.mu.Lock()
		t.program = append(t.program, programSpan{
			Req:     ev.RequestID,
			Name:    ev.Span,
			StartNS: int64(ev.Start.Sub(t.origin)),
			DurNS:   int64(ev.Duration),
		})
		t.mu.Unlock()
	})
	return context.WithValue(reqctx.WithRecorder(ctx, r.Recorder), traceKey{}, t)
}

func (t *trace) stop(r *core.Region) { r.Recorder.SetTrace(nil) }

// request tags one client request with an ID when ctx is traced, so the
// program's spans for it can be paired up; untraced contexts pass through.
func request(ctx context.Context, client, seq int) context.Context {
	if ctx.Value(traceKey{}) == nil {
		return ctx
	}
	return reqctx.With(ctx, reqctx.Meta{RequestID: fmt.Sprintf("c%d-%d", client, seq), DB: dbID})
}

// span records one benchmark-side span around fn.
func (t *trace) span(req, name, parent string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.mu.Lock()
	t.bench = append(t.bench, benchSpan{
		Req: req, Name: name, Parent: parent,
		StartNS: int64(start.Sub(t.origin)), EndNS: int64(end.Sub(t.origin)),
	})
	t.mu.Unlock()
	return end.Sub(start)
}

// write stores the trace as JSON under dir and returns the path.
func (t *trace) write(dir string) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	written := t.program
	if len(written) > maxProgramSpansWritten {
		written = written[:maxProgramSpansWritten]
	}
	blob, err := json.Marshal(struct {
		Workload      string        `json:"workload"`
		Seed          int64         `json:"seed"`
		BenchSpans    []benchSpan   `json:"bench_spans"`
		ProgramSpans  []programSpan `json:"program_spans"`
		ProgramTotal  int           `json:"program_spans_total"`
		ProgramCapped bool          `json:"program_spans_capped"`
	}{t.workload, t.seed, t.bench, written, len(t.program), len(written) < len(t.program)})
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+t.workload+".json")
	return path, os.WriteFile(path, blob, 0o644) //fslint:ignore iodiscipline the benchmark writes its own trace file, not database state
}

// spanLayer turns the traced pass's program spans into per-layer
// metrics. Spans of one request share its ID, so a span's self time is
// its duration minus its children's: wfq.submit wraps the backend op
// span (the rest is queue wait and hand-off), and backend.commit wraps
// spanner.txn.commit and rtcache.prepare.
func spanLayer(out map[string]metric, t *trace, untraced, traced *window) {
	type perReq struct{ submit, op, commit, txn, prepare time.Duration }
	reqs := map[string]*perReq{}
	series := map[string][]time.Duration{}
	t.mu.Lock()
	for _, s := range t.program {
		d := time.Duration(s.DurNS)
		series[s.Name] = append(series[s.Name], d)
		if s.Req == "" {
			continue
		}
		r := reqs[s.Req]
		if r == nil {
			r = &perReq{}
			reqs[s.Req] = r
		}
		switch s.Name {
		case "wfq.submit":
			r.submit += d
		case "backend.commit":
			r.commit += d
			r.op += d
		case "backend.get", "backend.query", "backend.aggregate":
			r.op += d
		case "spanner.txn.commit":
			r.txn += d
		case "rtcache.prepare":
			r.prepare += d
		}
	}
	t.mu.Unlock()
	var submitSelf, commitSelf []time.Duration
	for _, r := range reqs {
		if r.submit > 0 {
			submitSelf = append(submitSelf, r.submit-r.op)
		}
		if r.commit > 0 {
			commitSelf = append(commitSelf, r.commit-r.txn-r.prepare)
		}
	}
	p50 := func(name string, d []time.Duration) {
		out[name] = metric{Value: us(percentile(sortDurations(d), 0.5)), Unit: "us", N: len(d)}
	}
	p50("span.wfq.submit.self_p50_us", submitSelf)
	p50("span.backend.commit.self_p50_us", commitSelf)
	p50("span.spanner.txn.commit.p50_us", series["spanner.txn.commit"])
	p50("span.rtcache.prepare.p50_us", series["rtcache.prepare"])
	p50("span.backend.get.p50_us", series["backend.get"])
	p50("span.backend.query.p50_us", append(series["backend.query"], series["backend.aggregate"]...))

	rate := func(w *window) float64 { return float64(w.ok()) / w.elapsed.Seconds() }
	out["trace.overhead_ratio"] = metric{Value: rate(traced) / rate(untraced), Unit: "ratio", N: traced.ok()}
	late, _ := tail(sortDurations(untraced.late))
	out["gen.late_p99_us"] = metric{Value: us(late), Unit: "us", N: len(untraced.late)}
	after := sortDurations(untraced.afterAck)
	afterTail, _ := tail(after)
	out["notify.after_ack_p50_us"] = metric{Value: us(percentile(after, 0.5)), Unit: "us", N: len(after)}
	out["notify.after_ack_p99_us"] = metric{Value: us(afterTail), Unit: "us", N: len(after)}
	out["notify.lost"] = metric{Value: float64(untraced.lost), Unit: "count", N: len(untraced.write)}
}
