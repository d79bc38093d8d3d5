package firestore

import (
	"context"
	"time"

	"firestore/internal/status"
)

// Retry policy for single RPCs: failures whose canonical status code is
// retryable (Aborted, Unavailable, ResourceExhausted) are retried with
// jittered exponential backoff (status.Backoff); everything else —
// InvalidArgument, NotFound, PermissionDenied, FailedPrecondition,
// DeadlineExceeded — is returned immediately. Transactions do NOT go
// through this path: a conflicted transaction must re-run its function,
// which RunTransaction handles with its own loop.
//
// maxRPCAttempts bounds the interceptor's total tries per call.
const maxRPCAttempts = 5

// withRetry invokes op, retrying per the policy above while ctx allows.
// It returns op's last error, or DeadlineExceeded if ctx expires while
// backing off.
func withRetry(ctx context.Context, op func() error) error {
	var backoff status.Backoff
	var err error
	for attempt := 0; attempt < maxRPCAttempts; attempt++ {
		if err = op(); err == nil || !status.Retryable(status.CodeOf(err)) {
			return err
		}
		select {
		case <-ctx.Done():
			return status.FromContext("firestore", ctx.Err())
		case <-time.After(backoff.Next()):
		}
	}
	return err
}
