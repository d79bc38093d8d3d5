package reqctx

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"time"

	"firestore/internal/status"
)

// TracerConfig tunes a Tracer.
type TracerConfig struct {
	// SampleProb is the probabilistic head-sampling rate in [0, 1]: this
	// fraction of traces is kept regardless of outcome. Default 0.05.
	// Negative disables head sampling (slow/error traces are still kept).
	SampleProb float64
	// SlowThreshold marks a trace slow when its root span meets or
	// exceeds it; slow traces are always kept. Default 100ms.
	SlowThreshold time.Duration
	// OnKeep, when set, receives every kept trace synchronously at root
	// end (after ring insertion). Used for the slow-query log; must be
	// cheap.
	OnKeep func(TraceData)
}

const (
	// ringSize bounds each keep-category ring (sampled, slow, error).
	ringSize = 64
	// maxSpans caps the spans captured per trace; further spans still
	// feed the latency histograms but are dropped from the trace tree.
	maxSpans = 256
)

// Keep classifies why a finished trace was retained.
type Keep int

const (
	// KeepSampled: head sampling chose the trace at its start.
	KeepSampled Keep = iota
	// KeepSlow: the root span met the slow threshold.
	KeepSlow
	// KeepError: some span finished with a non-OK status code.
	KeepError
)

func (k Keep) String() string {
	switch k {
	case KeepSlow:
		return "slow"
	case KeepError:
		return "error"
	default:
		return "sampled"
	}
}

// Tracer turns the flat span stream into hierarchical traces: each
// request gets a trace ID, spans nest via parent/child span IDs, and
// finished traces are head-sampled — with slow and error traces always
// kept — into bounded in-memory rings (tracez-style) that /debug/tracez
// renders.
type Tracer struct {
	cfg TracerConfig

	mu     sync.Mutex
	active map[*Trace]struct{}
	rings  [3]traceRing // indexed by Keep

	started int64
	kept    int64
}

// NewTracer builds a tracer with cfg defaults applied.
func NewTracer(cfg TracerConfig) *Tracer {
	if cfg.SampleProb == 0 {
		cfg.SampleProb = 0.05
	}
	if cfg.SampleProb < 0 {
		cfg.SampleProb = 0
	}
	if cfg.SlowThreshold <= 0 {
		cfg.SlowThreshold = 100 * time.Millisecond
	}
	return &Tracer{
		cfg:    cfg,
		active: map[*Trace]struct{}{},
	}
}

// Trace is one request's in-progress span tree. All fields behind mu;
// readers obtain immutable TraceData snapshots.
type Trace struct {
	tracer *Tracer

	mu       sync.Mutex
	id       string
	db       string
	qos      QoS
	start    time.Time
	sampled  bool
	spans    []*span
	nextSpan uint64
	dropped  int
	errored  bool // some span finished with a non-OK code
	finished bool
}

// span is one node in a trace's tree.
type span struct {
	id       uint64
	parent   uint64 // 0 = root
	name     string
	start    time.Time
	duration time.Duration
	code     status.Code
	done     bool
	attrs    []Attr
}

// Attr is one span attribute (database, tablet, op, query shape, ...).
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// startTrace begins a new trace rooted at a span named name. The
// sampling decision is made up front (head sampling); spans are captured
// regardless so a trace that turns out slow or failed can still be kept.
func (t *Tracer) startTrace(id string, meta Meta, name string, now time.Time) (*Trace, *span) {
	if id == "" {
		id = NewRequestID()
	}
	sampled := t.cfg.SampleProb > 0 && rand.Float64() < t.cfg.SampleProb
	t.mu.Lock()
	t.started++
	tr := &Trace{
		tracer:  t,
		id:      id,
		db:      meta.DB,
		qos:     meta.QoS,
		start:   now,
		sampled: sampled,
		spans:   make([]*span, 0, 8), // a typical request's depth, in one allocation
	}
	t.active[tr] = struct{}{}
	t.mu.Unlock()

	tr.mu.Lock()
	root := tr.newSpanLocked(name, 0, now)
	tr.mu.Unlock()
	return tr, root
}

// newSpanLocked allocates the next span. Caller holds tr.mu.
func (tr *Trace) newSpanLocked(name string, parent uint64, now time.Time) *span {
	if len(tr.spans) >= maxSpans {
		tr.dropped++
		return nil
	}
	tr.nextSpan++
	s := &span{id: tr.nextSpan, parent: parent, name: name, start: now}
	tr.spans = append(tr.spans, s)
	return s
}

// child starts a child span under parent (nil-safe for capped traces).
func (tr *Trace) child(name string, parent *span, now time.Time) *span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.finished {
		return nil
	}
	pid := uint64(0)
	if parent != nil {
		pid = parent.id
	}
	return tr.newSpanLocked(name, pid, now)
}

// endSpan finishes s; ending the root finalizes the whole trace.
func (tr *Trace) endSpan(s *span, code status.Code, now time.Time) {
	if s == nil {
		return
	}
	tr.mu.Lock()
	if s.done || tr.finished && s.parent != 0 {
		tr.mu.Unlock()
		return
	}
	s.done = true
	s.duration = now.Sub(s.start)
	s.code = code
	if code != status.OK {
		tr.errored = true
	}
	if s.parent != 0 {
		tr.mu.Unlock()
		return
	}
	tr.finished = true
	// Decide keep before copying anything: with head sampling off almost
	// every trace is dropped, and its snapshot would be pure garbage.
	slow := s.duration >= tr.tracer.cfg.SlowThreshold
	var kept *TraceData
	if tr.sampled || slow || tr.errored {
		kept = tr.snapshotLocked(s.duration, slow)
	}
	tr.mu.Unlock()
	tr.tracer.finalize(tr, kept)
}

// annotate attaches an attribute to s.
func (tr *Trace) annotate(s *span, key, value string) {
	if s == nil {
		return
	}
	tr.mu.Lock()
	if !s.done {
		s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	}
	tr.mu.Unlock()
}

// SpanData is one finished (or still-open, Duration 0) span in a
// TraceData snapshot. ParentID 0 marks the root.
type SpanData struct {
	ID       uint64        `json:"id"`
	ParentID uint64        `json:"parent_id"`
	Name     string        `json:"name"`
	Code     string        `json:"code"`
	StartOff time.Duration `json:"start_offset_ns"` // offset from trace start
	Duration time.Duration `json:"duration_ns"`
	Attrs    []Attr        `json:"attrs,omitempty"`
}

// TraceData is an immutable snapshot of one trace.
type TraceData struct {
	ID       string        `json:"id"`
	DB       string        `json:"db"`
	QoS      string        `json:"qos"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Sampled  bool          `json:"sampled"`
	Slow     bool          `json:"slow"`
	Error    bool          `json:"error"`
	Dropped  int           `json:"dropped_spans,omitempty"`
	Spans    []SpanData    `json:"spans"`
}

// Op returns the root span's name ("frontend.put"), or "".
func (td TraceData) Op() string {
	for _, s := range td.Spans {
		if s.ParentID == 0 {
			return s.Name
		}
	}
	return ""
}

// Attr returns the first value of key across the trace's spans.
func (td TraceData) Attr(key string) string {
	for _, s := range td.Spans {
		for _, a := range s.Attrs {
			if a.Key == key {
				return a.Value
			}
		}
	}
	return ""
}

// LayerTimings aggregates span durations by span name — the per-layer
// breakdown the slow-query log emits.
func (td TraceData) LayerTimings() map[string]time.Duration {
	out := make(map[string]time.Duration, len(td.Spans))
	for _, s := range td.Spans {
		out[s.Name] += s.Duration
	}
	return out
}

// snapshotLocked builds the immutable view of a finished trace whose
// root took duration. Caller holds tr.mu.
func (tr *Trace) snapshotLocked(duration time.Duration, slow bool) *TraceData {
	td := &TraceData{
		ID:       tr.id,
		DB:       tr.db,
		QoS:      tr.qos.String(),
		Start:    tr.start,
		Duration: duration,
		Sampled:  tr.sampled,
		Slow:     slow,
		Error:    tr.errored,
		Dropped:  tr.dropped,
		Spans:    make([]SpanData, 0, len(tr.spans)),
	}
	for _, s := range tr.spans {
		sd := SpanData{
			ID:       s.id,
			ParentID: s.parent,
			Name:     s.name,
			Code:     s.code.String(),
			StartOff: s.start.Sub(tr.start),
			Duration: s.duration,
		}
		if len(s.attrs) > 0 {
			sd.Attrs = append([]Attr(nil), s.attrs...)
		}
		td.Spans = append(td.Spans, sd)
	}
	return td
}

// finalize retires tr from the active set and, when the keep policy
// retained it (kept != nil), files it in the ring of each reason.
func (t *Tracer) finalize(tr *Trace, kept *TraceData) {
	t.mu.Lock()
	delete(t.active, tr)
	if kept != nil {
		t.kept++
		if kept.Sampled {
			t.rings[KeepSampled].push(*kept)
		}
		if kept.Slow {
			t.rings[KeepSlow].push(*kept)
		}
		if kept.Error {
			t.rings[KeepError].push(*kept)
		}
	}
	t.mu.Unlock()
	if kept != nil && t.cfg.OnKeep != nil {
		t.cfg.OnKeep(*kept)
	}
}

// traceRing is a bounded FIFO of kept traces: the oldest trace is
// evicted when a push exceeds capacity.
type traceRing struct {
	buf []TraceData
}

func (r *traceRing) push(td TraceData) {
	r.buf = append(r.buf, td)
	if len(r.buf) > ringSize {
		// Shift rather than reslice so evicted traces are collectable.
		copy(r.buf, r.buf[1:])
		r.buf[len(r.buf)-1] = TraceData{}
		r.buf = r.buf[:len(r.buf)-1]
	}
}

// Recent returns up to n kept traces of kind, newest first.
func (t *Tracer) Recent(kind Keep, n int) []TraceData {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := &t.rings[kind]
	if n <= 0 || n > len(r.buf) {
		n = len(r.buf)
	}
	out := make([]TraceData, 0, n)
	for i := len(r.buf) - 1; i >= len(r.buf)-n; i-- {
		out = append(out, r.buf[i])
	}
	return out
}

// Stats reports tracer totals.
type TracerStats struct {
	Started int64 `json:"started"`
	Kept    int64 `json:"kept"`
	Active  int   `json:"active"`
}

// Stats returns trace totals and the in-flight count.
func (t *Tracer) Stats() TracerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return TracerStats{Started: t.started, Kept: t.kept, Active: len(t.active)}
}

// ActiveRequest describes one in-flight request for /debug/requestz.
type ActiveRequest struct {
	ID    string        `json:"id"`
	DB    string        `json:"db"`
	QoS   string        `json:"qos"`
	Op    string        `json:"op"`    // root span name
	Layer string        `json:"layer"` // deepest span still open
	Age   time.Duration `json:"age_ns"`
	Spans int           `json:"spans"`
}

// Active lists in-flight requests, oldest first.
func (t *Tracer) Active() []ActiveRequest {
	now := time.Now()
	t.mu.Lock()
	traces := make([]*Trace, 0, len(t.active))
	for tr := range t.active {
		traces = append(traces, tr)
	}
	t.mu.Unlock()
	out := make([]ActiveRequest, 0, len(traces))
	for _, tr := range traces {
		tr.mu.Lock()
		ar := ActiveRequest{
			ID:    tr.id,
			DB:    tr.db,
			QoS:   tr.qos.String(),
			Age:   now.Sub(tr.start),
			Spans: len(tr.spans),
		}
		for _, s := range tr.spans {
			if s.parent == 0 {
				ar.Op = s.name
			}
			if !s.done {
				ar.Layer = s.name // last-started open span = current layer
			}
		}
		tr.mu.Unlock()
		out = append(out, ar)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Age > out[j].Age })
	return out
}

// spanKey carries the active trace + span through the context.
type spanKey struct{}

type spanRef struct {
	trace *Trace
	span  *span
}

// withSpan returns ctx carrying the given trace/span pair.
func withSpan(ctx context.Context, tr *Trace, s *span) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{trace: tr, span: s})
}

// currentSpan returns the context's active trace/span, if any.
func currentSpan(ctx context.Context) (spanRef, bool) {
	ref, ok := ctx.Value(spanKey{}).(spanRef)
	return ref, ok
}

// Annotate attaches a key=value attribute (database, tablet, op, query
// shape) to the context's current span. No-op outside a traced request.
func Annotate(ctx context.Context, key, value string) {
	if ref, ok := currentSpan(ctx); ok && ref.trace != nil {
		ref.trace.annotate(ref.span, key, value)
	}
}

// TraceID returns the context's trace ID, or "" outside a trace.
func TraceID(ctx context.Context) string {
	if ref, ok := currentSpan(ctx); ok && ref.trace != nil {
		ref.trace.mu.Lock()
		defer ref.trace.mu.Unlock()
		return ref.trace.id
	}
	return ""
}
