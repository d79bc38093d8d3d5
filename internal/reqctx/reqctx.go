// Package reqctx carries request-scoped metadata through the stack in a
// context.Context: a request ID minted at ingress, the target database,
// and a QoS tag separating latency-sensitive traffic from batch work
// ("certain batch and internal workloads set custom tags on their RPCs,
// which allow schedulers to prioritize latency-sensitive workloads over
// such RPCs", §IV-C). Deadlines ride the context itself.
//
// The package also provides the lightweight span recorder every layer
// uses (reqctx.StartSpan(ctx, "backend.commit")): each finished span is
// one Record into the histogram name{db, code} of the obs.Registry that
// the context's Recorder feeds, plus an optional structured trace sink.
// A context without a Recorder records no spans.
package reqctx

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync/atomic"
)

// QoS tags a request's scheduling class.
type QoS int

const (
	// Latency is interactive, latency-sensitive traffic (the default).
	Latency QoS = iota
	// Batch is throughput-oriented background work, scheduled under a
	// low fair-share weight so it cannot starve interactive traffic.
	Batch
)

func (q QoS) String() string {
	if q == Batch {
		return "batch"
	}
	return "latency"
}

// Meta is the request-scoped metadata attached at ingress.
type Meta struct {
	// RequestID identifies the request across layers and in traces.
	RequestID string
	// DB is the target database ID, when known at ingress.
	DB string
	// QoS is the request's scheduling class.
	QoS QoS
}

type metaKey struct{}

// With returns a context carrying m.
func With(ctx context.Context, m Meta) context.Context {
	return context.WithValue(ctx, metaKey{}, m)
}

// From returns the request metadata, or the zero Meta when the context
// carries none (internal work, tests).
func From(ctx context.Context) Meta {
	m, _ := ctx.Value(metaKey{}).(Meta)
	return m
}

// RequestID returns the context's request ID, or "" when absent.
func RequestID(ctx context.Context) string { return From(ctx).RequestID }

// ridFallback sequences request IDs if the system entropy source fails.
var ridFallback atomic.Uint64

// NewRequestID mints a 16-hex-char request ID.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("req-%016x", ridFallback.Add(1))
	}
	return hex.EncodeToString(b[:])
}
