package reqctx

import (
	"context"
	"sync/atomic"
	"time"

	"firestore/internal/obs"
	"firestore/internal/status"
)

// Recorder routes every finished span to its outputs: one latency
// histogram per (span, database, status code) in an obs.Registry —
// "backend.commit" labeled {db=..., code=...}, read back through the
// registry's Snapshot — plus, when attached, a Tracer that assembles
// spans into hierarchical traces and a structured trace sink. The
// Recorder stores no latencies and no handles: a span end resolves its
// histogram through the registry's own lock-free family and Vec index
// and is one Record. The zero value is not usable; call NewRecorder. A
// span whose context carries no Recorder is recorded nowhere.
type Recorder struct {
	trace  atomic.Pointer[func(TraceEvent)]
	tracer atomic.Pointer[Tracer]
	reg    *obs.Registry
}

// NewRecorder returns a recorder feeding reg.
func NewRecorder(reg *obs.Registry) *Recorder {
	return &Recorder{reg: reg}
}

type recorderKey struct{}

// WithRecorder returns a context routing spans to r.
func WithRecorder(ctx context.Context, r *Recorder) context.Context {
	return context.WithValue(ctx, recorderKey{}, r)
}

// TraceEvent is one finished span, emitted to the trace sink.
type TraceEvent struct {
	RequestID string
	DB        string
	QoS       QoS
	Span      string
	Code      status.Code
	Start     time.Time
	Duration  time.Duration
}

// SetTrace installs fn as the structured trace sink (nil disables).
// fn is called synchronously at span end and must be cheap.
func (r *Recorder) SetTrace(fn func(TraceEvent)) {
	if fn == nil {
		r.trace.Store(nil)
		return
	}
	r.trace.Store(&fn)
}

// SetTracer attaches a tracer: StartSpan then assembles spans into
// per-request trace trees (nil disables tracing).
func (r *Recorder) SetTracer(t *Tracer) { r.tracer.Store(t) }

// StartSpan begins a span named like "backend.commit" and returns the
// context plus the started Span. Call its End with the operation's error
// (nil on success); the elapsed time lands in the registry histogram
// name{db, code=status.CodeOf(err)} and, when a trace sink is installed,
// one TraceEvent is emitted with the request metadata. On a context
// without a Recorder it returns ctx and a zero Span, whose End does
// nothing.
//
// When the recorder carries a Tracer, spans also form a hierarchy: a
// context without an active span starts a new trace (trace ID = the
// request ID when set), and nested StartSpan calls become children of
// the context's span. The returned context carries the new span, so it
// must be the one passed to downstream layers.
func StartSpan(ctx context.Context, name string) (context.Context, Span) {
	rec, _ := ctx.Value(recorderKey{}).(*Recorder)
	if rec == nil {
		return ctx, Span{}
	}
	meta := From(ctx)
	start := time.Now()

	var tr *Trace
	var sp *span
	if ref, ok := currentSpan(ctx); ok && ref.trace != nil {
		tr = ref.trace
		sp = tr.child(name, ref.span, start)
		ctx = withSpan(ctx, tr, sp)
	} else if tz := rec.tracer.Load(); tz != nil {
		tr, sp = tz.startTrace(meta.RequestID, meta, name, start)
		ctx = withSpan(ctx, tr, sp)
	}
	return ctx, Span{rec: rec, meta: meta, name: name, start: start, tr: tr, sp: sp}
}

// Span is a span StartSpan began, held by value so that a span no tracer
// follows allocates nothing.
type Span struct {
	rec   *Recorder // nil when the span records nowhere
	meta  Meta
	name  string
	start time.Time
	tr    *Trace // nil when no tracer follows the span
	sp    *span
}

// End finishes the span with the operation's error (nil on success).
func (s Span) End(err error) {
	if s.rec == nil {
		return
	}
	now := time.Now()
	d := now.Sub(s.start)
	code := status.CodeOf(err)
	//fslint:ignore obsdiscipline span names are constants where StartSpan is called; warm, the declaration is a lock-free read
	s.rec.reg.HistogramVec(s.name, "db", "code").With(s.meta.DB, code.String()).Record(d)
	if s.tr != nil {
		s.tr.endSpan(s.sp, code, now)
	}
	if fn := s.rec.trace.Load(); fn != nil {
		(*fn)(TraceEvent{
			RequestID: s.meta.RequestID,
			DB:        s.meta.DB,
			QoS:       s.meta.QoS,
			Span:      s.name,
			Code:      code,
			Start:     s.start,
			Duration:  d,
		})
	}
}
