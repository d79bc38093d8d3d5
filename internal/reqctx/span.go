package reqctx

import (
	"context"
	"maps"
	"sync"
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
// Recorder stores no latencies itself; it only caches the registry's
// histogram handles so a span end is one lock-free Record. The zero
// value is not usable; call NewRecorder.
type Recorder struct {
	trace  atomic.Pointer[func(TraceEvent)]
	tracer atomic.Pointer[Tracer]

	// handles is a copy-on-write cache of registry handles: readers load
	// the map without locking; mu serializes the rare insert and guards
	// reg, so a handle is always minted from the registry it is cached
	// for.
	handles atomic.Pointer[map[handleKey]*obs.Histogram]
	mu      sync.Mutex
	reg     *obs.Registry
}

type handleKey struct {
	span, db string
	code     status.Code
}

// maxHandles bounds the handle cache. The registry already folds
// runaway label sets into "other" (obs.MaxCardinality); past this many
// distinct keys the recorder stops caching and asks the registry each
// time rather than grow without bound.
const maxHandles = 4096

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
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reg = reg
	r.handles.Store(&map[handleKey]*obs.Histogram{})
}

// SetTracer attaches a tracer: StartSpan then assembles spans into
// per-request trace trees (nil disables tracing).
func (r *Recorder) SetTracer(t *Tracer) { r.tracer.Store(t) }

// histogram returns the registry handle for one (span, db, code). The
// steady state is a map read: no lock, no Labels map, no registry
// lookup.
func (r *Recorder) histogram(name, db string, code status.Code) *obs.Histogram {
	k := handleKey{name, db, code}
	if h, ok := (*r.handles.Load())[k]; ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cached := *r.handles.Load()
	if h, ok := cached[k]; ok {
		return h
	}
	labels := obs.Labels{"code": code.String()}
	if db != "" {
		labels["db"] = db
	}
	h := r.reg.Histogram(name, labels)
	if len(cached) < maxHandles {
		next := maps.Clone(cached)
		next[k] = h
		r.handles.Store(&next)
	}
	return h
}

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
		rec.histogram(name, meta.DB, code).Record(d)
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
