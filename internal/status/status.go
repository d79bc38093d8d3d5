// Package status defines the canonical status codes every layer of the
// service classifies its failures with, mirroring how the production
// system tags RPC failures so that clients know what is safe to retry
// and schedulers know what to shed (§IV-C, §IV-D2). A status code
// answers three questions mechanically, with no per-sentinel special
// cases anywhere else in the stack:
//
//   - is the operation safe to retry? (Retryable)
//   - what HTTP response does it map to at the edge? (HTTPStatus)
//   - which per-layer latency histogram does its span land in? (reqctx)
//
// Each package keeps its exported sentinel errors (errors.Is contracts
// are unchanged) but constructs them with New, so every error chain
// bottoms out in a *Error carrying a canonical code and the layer that
// classified it. CodeOf(err) recovers the code from arbitrarily wrapped
// errors, treating context cancellation/expiry as DeadlineExceeded.
package status

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"time"
)

// Code is a canonical status code. The values follow the gRPC canonical
// code taxonomy restricted to what this service actually produces.
// CodeOf(err) recovers the code carried anywhere in an error chain.
type Code int

const (
	// OK reports success; CodeOf(nil) returns it.
	OK Code = iota
	// InvalidArgument: the request is malformed regardless of system
	// state (bad document name, invalid query, oversized document).
	InvalidArgument
	// NotFound: the addressed database or document does not exist.
	NotFound
	// AlreadyExists: a create hit an existing database or document.
	AlreadyExists
	// PermissionDenied: security rules rejected the request.
	PermissionDenied
	// FailedPrecondition: the system is not in the state the request
	// requires and a retry will not fix it (e.g. a query that needs a
	// composite index the developer has not created).
	FailedPrecondition
	// Aborted: a concurrency conflict (optimistic transaction
	// revalidation failure, Spanner abort); safe to retry from the top.
	Aborted
	// ResourceExhausted: load shedding or an in-flight cap; retry with
	// backoff.
	ResourceExhausted
	// DeadlineExceeded: the request's deadline expired or the caller
	// cancelled; the work was not (fully) performed.
	DeadlineExceeded
	// Unavailable: a dependency is transiently unavailable (Real-time
	// Cache prepare failure, closed scheduler); retry with backoff.
	Unavailable
	// Internal: an invariant broke (corrupt encoding, unknown error).
	Internal
)

var codeNames = map[Code]string{
	OK:                 "OK",
	InvalidArgument:    "INVALID_ARGUMENT",
	NotFound:           "NOT_FOUND",
	AlreadyExists:      "ALREADY_EXISTS",
	PermissionDenied:   "PERMISSION_DENIED",
	FailedPrecondition: "FAILED_PRECONDITION",
	Aborted:            "ABORTED",
	ResourceExhausted:  "RESOURCE_EXHAUSTED",
	DeadlineExceeded:   "DEADLINE_EXCEEDED",
	Unavailable:        "UNAVAILABLE",
	Internal:           "INTERNAL",
}

func (c Code) String() string {
	if s, ok := codeNames[c]; ok {
		return s
	}
	return fmt.Sprintf("CODE(%d)", int(c))
}

// Error is an error carrying a canonical code, the layer that
// classified it, and optionally a wrapped cause. Package sentinels are
// *Error values, so errors.Is against them keeps working while Code
// recovers the classification from any depth of wrapping.
type Error struct {
	Code  Code
	Layer string // the layer that classified the failure, e.g. "backend"
	Msg   string
	Err   error // wrapped cause, may be nil
}

// New returns a sentinel-style status error rendered as "layer: msg".
func New(code Code, layer, msg string) *Error {
	return &Error{Code: code, Layer: layer, Msg: msg}
}

// Errorf is New with a formatted message.
func Errorf(code Code, layer, format string, args ...any) *Error {
	return &Error{Code: code, Layer: layer, Msg: fmt.Sprintf(format, args...)}
}

// Wrap classifies err under code and layer, rendered as
// "layer: <err>". A nil err returns nil.
func Wrap(code Code, layer string, err error) error {
	if err == nil {
		return nil
	}
	return &Error{Code: code, Layer: layer, Err: err}
}

// WithCode attaches a code to err without changing its message. A nil
// err returns nil.
func WithCode(code Code, err error) error {
	if err == nil {
		return nil
	}
	return &Error{Code: code, Err: err}
}

// FromContext classifies a context error (cancellation or deadline
// expiry) as DeadlineExceeded for the given layer, preserving the
// original in the chain so errors.Is(err, context.DeadlineExceeded)
// still holds. A nil err returns nil.
func FromContext(layer string, err error) error {
	if err == nil {
		return nil
	}
	return &Error{Code: DeadlineExceeded, Layer: layer, Err: err}
}

func (e *Error) Error() string {
	msg := e.Msg
	if msg == "" && e.Err != nil {
		msg = e.Err.Error()
	}
	if e.Layer == "" {
		return msg
	}
	return e.Layer + ": " + msg
}

func (e *Error) Unwrap() error { return e.Err }

// Coder is implemented by error types that carry their own canonical
// code without being a *Error (e.g. query.NeedsIndexError).
type Coder interface {
	StatusCode() Code
}

// CodeOf classifies an arbitrary error: the outermost *Error or Coder
// in the chain wins; bare context errors classify as DeadlineExceeded;
// anything else is Internal. CodeOf(nil) is OK.
func CodeOf(err error) Code {
	if err == nil {
		return OK
	}
	var se *Error
	if errors.As(err, &se) {
		return se.Code
	}
	var c Coder
	if errors.As(err, &c) {
		return c.StatusCode()
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return DeadlineExceeded
	}
	return Internal
}

// Retryable reports whether an operation failing with code is safe to
// retry (with backoff). Aborted conflicts, shed load, and transiently
// unavailable dependencies are; malformed requests, missing documents,
// permission denials, and expired deadlines are not.
func Retryable(code Code) bool {
	switch code {
	case Aborted, Unavailable, ResourceExhausted:
		return true
	}
	return false
}

// Backoff paces the retries of a Retryable failure: each delay is the
// current base — 2ms, doubling to a 100ms cap — plus up to 100% jitter
// to decorrelate retry storms. Callers own the attempt limit. The zero
// value is ready to use.
type Backoff struct{ base time.Duration }

// Next returns the delay to wait before the next attempt.
func (b *Backoff) Next() time.Duration {
	if b.base == 0 {
		b.base = 2 * time.Millisecond
	}
	d := b.base + time.Duration(rand.Int63n(int64(b.base)))
	b.base = min(2*b.base, 100*time.Millisecond)
	return d
}

// Retry is the client SDKs' one retry loop: it runs op until it succeeds,
// fails with a code that is not Retryable, or has been tried attempts
// times, sleeping a Backoff between tries. It returns op's last error,
// or DeadlineExceeded if ctx ends during a sleep. What a retry re-runs
// is the caller's business: one idempotent RPC, or a whole optimistic
// transaction function against a fresh snapshot.
func Retry(ctx context.Context, attempts int, op func() error) error {
	var backoff Backoff
	for try := 1; ; try++ {
		err := op()
		if err == nil || !Retryable(CodeOf(err)) || try >= attempts {
			return err
		}
		select {
		case <-ctx.Done():
			return FromContext("retry", ctx.Err())
		case <-time.After(backoff.Next()):
		}
	}
}

// HTTPStatus is the single code→HTTP mapping used by the server edge.
// FailedPrecondition maps to 424 to preserve the needs-index contract
// (the console-link error the paper describes in §IV-D3).
func HTTPStatus(code Code) int {
	switch code {
	case OK:
		return http.StatusOK
	case InvalidArgument:
		return http.StatusBadRequest
	case NotFound:
		return http.StatusNotFound
	case AlreadyExists:
		return http.StatusConflict
	case PermissionDenied:
		return http.StatusForbidden
	case FailedPrecondition:
		return http.StatusFailedDependency
	case Aborted:
		return http.StatusConflict
	case ResourceExhausted:
		return http.StatusTooManyRequests
	case DeadlineExceeded:
		return http.StatusGatewayTimeout
	case Unavailable:
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}
