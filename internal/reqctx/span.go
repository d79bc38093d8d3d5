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
// and is one Record. The zero value is not usable; call NewRecorder.
type Recorder struct {
	trace  atomic.Pointer[func(TraceEvent)]
	tracer atomic.Pointer[Tracer]
	reg    atomic.Pointer[obs.Registry]
}

// NewRecorder returns a recorder feeding obs.Default.
func NewRecorder() *Recorder {
	r := &Recorder{}
	r.SetRegistry(nil)
	return r
}

// Default is the process-wide recorder used when a context carries no
// explicit one; its spans land in obs.Default.
var Default = NewRecorder()

type recorderKey struct{}

// WithRecorder returns a context routing spans to r.
func WithRecorder(ctx context.Context, r *Recorder) context.Context {
	return context.WithValue(ctx, recorderKey{}, r)
}

// RecorderFrom returns the context's recorder, falling back to Default.
func RecorderFrom(ctx context.Context) *Recorder {
	if r, ok := ctx.Value(recorderKey{}).(*Recorder); ok && r != nil {
		return r
	}
	return Default
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

// SetRegistry routes every finished span into reg (nil = obs.Default).
func (r *Recorder) SetRegistry(reg *obs.Registry) {
	if reg == nil {
		reg = obs.Default
	}
	r.reg.Store(reg)
}

// SetTracer attaches a tracer: StartSpan then assembles spans into
// per-request trace trees (nil disables tracing).
func (r *Recorder) SetTracer(t *Tracer) { r.tracer.Store(t) }

// StartSpan begins a span named like "backend.commit" and returns the
// context plus an end function. Call end with the operation's error
// (nil on success); the elapsed time lands in the registry histogram
// name{db, code=status.CodeOf(err)} and, when a trace sink is installed,
// one TraceEvent is emitted with the request metadata.
//
// When the recorder carries a Tracer, spans also form a hierarchy: a
// context without an active span starts a new trace (trace ID = the
// request ID when set), and nested StartSpan calls become children of
// the context's span. The returned context carries the new span, so it
// must be the one passed to downstream layers.
func StartSpan(ctx context.Context, name string) (context.Context, func(error)) {
	rec := RecorderFrom(ctx)
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

	return ctx, func(err error) {
		now := time.Now()
		d := now.Sub(start)
		code := status.CodeOf(err)
		//fslint:ignore obsdiscipline span names are constants where StartSpan is called; warm, the declaration is a lock-free read
		rec.reg.Load().HistogramVec(name, "db", "code").With(meta.DB, code.String()).Record(d)
		if tr != nil {
			tr.endSpan(sp, code, now)
		}
		if fn := rec.trace.Load(); fn != nil {
			(*fn)(TraceEvent{
				RequestID: meta.RequestID,
				DB:        meta.DB,
				QoS:       meta.QoS,
				Span:      name,
				Code:      code,
				Start:     start,
				Duration:  d,
			})
		}
	}
}
