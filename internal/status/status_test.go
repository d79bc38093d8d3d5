package status

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"testing"
	"time"
)

func TestCodeOf(t *testing.T) {
	sentinel := New(Aborted, "backend", "transaction conflict, retry")
	cases := []struct {
		name string
		err  error
		want Code
	}{
		{"nil", nil, OK},
		{"bare sentinel", sentinel, Aborted},
		{"wrapped once", fmt.Errorf("op failed: %w", sentinel), Aborted},
		{"wrapped twice", fmt.Errorf("outer: %w", fmt.Errorf("inner: %w", sentinel)), Aborted},
		{"Wrap", Wrap(Unavailable, "rtcache", errors.New("prepare failed")), Unavailable},
		{"WithCode", WithCode(InvalidArgument, errors.New("bad rules")), InvalidArgument},
		{"context deadline", context.DeadlineExceeded, DeadlineExceeded},
		{"context canceled", context.Canceled, DeadlineExceeded},
		{"wrapped context err", fmt.Errorf("submit: %w", context.Canceled), DeadlineExceeded},
		{"FromContext", FromContext("wfq", context.DeadlineExceeded), DeadlineExceeded},
		{"unknown error", errors.New("boom"), Internal},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := CodeOf(tc.err); got != tc.want {
				t.Fatalf("CodeOf(%v) = %v, want %v", tc.err, got, tc.want)
			}
		})
	}
}

// The outermost classification in a chain wins: a layer re-classifying a
// cause overrides the cause's own code.
func TestCodeOfOutermostWins(t *testing.T) {
	inner := New(NotFound, "catalog", "database not found")
	outer := Wrap(Unavailable, "routing", inner)
	if got := CodeOf(outer); got != Unavailable {
		t.Fatalf("CodeOf(outer) = %v, want Unavailable", got)
	}
	// The inner sentinel identity is still reachable.
	if !errors.Is(outer, inner) {
		t.Fatal("errors.Is(outer, inner) = false, want true")
	}
}

type needsThing struct{}

func (needsThing) Error() string    { return "needs a thing" }
func (needsThing) StatusCode() Code { return FailedPrecondition }

func TestCodeOfCoder(t *testing.T) {
	err := fmt.Errorf("query: %w", needsThing{})
	if got := CodeOf(err); got != FailedPrecondition {
		t.Fatalf("CodeOf(Coder) = %v, want FailedPrecondition", got)
	}
}

func TestErrorsIsThroughWrapping(t *testing.T) {
	sentinel := New(NotFound, "backend", "document not found")
	err := fmt.Errorf("%w: /a/b", sentinel)
	if !errors.Is(err, sentinel) {
		t.Fatal("errors.Is through %w failed for a status sentinel")
	}
}

func TestErrorRendering(t *testing.T) {
	if got := New(NotFound, "backend", "document not found").Error(); got != "backend: document not found" {
		t.Fatalf("New rendering = %q", got)
	}
	if got := Wrap(Unavailable, "rtcache", errors.New("dial refused")).Error(); got != "rtcache: dial refused" {
		t.Fatalf("Wrap rendering = %q", got)
	}
	if got := WithCode(InvalidArgument, errors.New("bad token")).Error(); got != "bad token" {
		t.Fatalf("WithCode rendering = %q", got)
	}
}

func TestNilPassThrough(t *testing.T) {
	if Wrap(Internal, "x", nil) != nil {
		t.Fatal("Wrap(nil) != nil")
	}
	if WithCode(Internal, nil) != nil {
		t.Fatal("WithCode(nil) != nil")
	}
	if FromContext("x", nil) != nil {
		t.Fatal("FromContext(nil) != nil")
	}
}

func TestRetryable(t *testing.T) {
	retryable := map[Code]bool{
		Aborted: true, Unavailable: true, ResourceExhausted: true,
	}
	all := []Code{OK, InvalidArgument, NotFound, AlreadyExists, PermissionDenied,
		FailedPrecondition, Aborted, ResourceExhausted, DeadlineExceeded, Unavailable, Internal}
	for _, c := range all {
		if got := Retryable(c); got != retryable[c] {
			t.Errorf("Retryable(%v) = %v, want %v", c, got, retryable[c])
		}
	}
}

// TestBackoffSequence pins the one retry pacing every client loop
// shares: bases 2ms doubling to the 100ms cap, each delay the base plus
// less than 100% jitter.
func TestBackoffSequence(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		var b Backoff
		for i, base := range []time.Duration{2, 4, 8, 16, 32, 64, 100, 100, 100} {
			base *= time.Millisecond
			if d := b.Next(); d < base || d >= 2*base {
				t.Fatalf("delay %d = %v, want in [%v, %v)", i, d, base, 2*base)
			}
		}
	}
}

// TestRetry pins the one retry loop: a retryable failure is tried again
// up to the limit, anything else returns at once, and a context that ends
// during a backoff ends the loop with DeadlineExceeded.
func TestRetry(t *testing.T) {
	transient, fatal := New(Unavailable, "t", "try again"), New(PermissionDenied, "t", "no")
	for _, tc := range []struct {
		name      string
		fail      []error // op's results in order; nil after them
		want      error
		wantTries int
	}{
		{"first try", nil, nil, 1},
		{"recovers", []error{transient, transient}, nil, 3},
		{"not retryable", []error{transient, fatal}, fatal, 2},
		{"limit", []error{transient, transient, transient, transient}, transient, 4},
	} {
		tries := 0
		err := Retry(context.Background(), 4, func() error {
			tries++
			if tries <= len(tc.fail) {
				return tc.fail[tries-1]
			}
			return nil
		})
		if !errors.Is(err, tc.want) || tries != tc.wantTries {
			t.Errorf("%s: %d tries, err %v; want %d, %v", tc.name, tries, err, tc.wantTries, tc.want)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	err := Retry(ctx, 1<<30, func() error { cancel(); return transient })
	if CodeOf(err) != DeadlineExceeded || !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled during backoff: %v", err)
	}
}

func TestHTTPStatus(t *testing.T) {
	cases := map[Code]int{
		OK:                 http.StatusOK,
		InvalidArgument:    http.StatusBadRequest,
		NotFound:           http.StatusNotFound,
		AlreadyExists:      http.StatusConflict,
		PermissionDenied:   http.StatusForbidden,
		FailedPrecondition: http.StatusFailedDependency,
		Aborted:            http.StatusConflict,
		ResourceExhausted:  http.StatusTooManyRequests,
		DeadlineExceeded:   http.StatusGatewayTimeout,
		Unavailable:        http.StatusServiceUnavailable,
		Internal:           http.StatusInternalServerError,
	}
	for c, want := range cases {
		if got := HTTPStatus(c); got != want {
			t.Errorf("HTTPStatus(%v) = %d, want %d", c, got, want)
		}
	}
	if got := HTTPStatus(Code(99)); got != http.StatusInternalServerError {
		t.Errorf("HTTPStatus(unknown) = %d, want 500", got)
	}
}

func TestFromContextPreservesChain(t *testing.T) {
	err := FromContext("wfq", context.DeadlineExceeded)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("FromContext lost the context error identity")
	}
	err = FromContext("wfq", context.Canceled)
	if !errors.Is(err, context.Canceled) {
		t.Fatal("FromContext lost the cancellation identity")
	}
	if CodeOf(err) != DeadlineExceeded {
		t.Fatalf("CodeOf = %v, want DeadlineExceeded", CodeOf(err))
	}
}
