package backend

import (
	"context"
	"testing"

	"firestore/internal/doc"
	"firestore/internal/obs"
	"firestore/internal/reqctx"
	"firestore/internal/status"
)

// spanRecorder returns a context whose spans feed a fresh registry, and
// a reader for one span's summary under one status code.
func spanRecorder(ctx context.Context, dbID string) (context.Context, func(span string, code status.Code) obs.Summary) {
	reg := obs.NewRegistry()
	rec := reqctx.NewRecorder(reg)
	ctx = reqctx.With(reqctx.WithRecorder(ctx, rec), reqctx.Meta{RequestID: "span-test", DB: dbID})
	return ctx, func(span string, code status.Code) obs.Summary {
		return reg.Histogram(span, obs.Labels{"db": dbID, "code": code.String()}).Snapshot()
	}
}

// A commit traced through the stack lands one sample in each layer's
// span histogram: backend.commit and, below it, spanner.txn.commit. This
// is the per-layer latency breakdown /debug/metricz serves.
func TestCommitRecordsPerLayerSpans(t *testing.T) {
	e := newEnv(t)
	ctx, summary := spanRecorder(context.Background(), e.dbID)

	if _, err := e.b.Commit(ctx, e.dbID, priv, []WriteOp{
		{Kind: OpSet, Name: doc.MustName("/spans/one"), Fields: map[string]doc.Value{"v": doc.Int(1)}},
	}); err != nil {
		t.Fatalf("commit: %v", err)
	}

	for _, span := range []string{"backend.commit", "spanner.txn.commit"} {
		s := summary(span, status.OK)
		if s.Count == 0 {
			t.Errorf("span %q: no OK samples recorded", span)
		}
		if s.P50 <= 0 {
			t.Errorf("span %q: p50 = %v, want > 0", span, s.P50)
		}
	}

	// Reads record their own spans.
	if _, _, err := e.b.GetDocument(ctx, e.dbID, priv, doc.MustName("/spans/one"), 0); err != nil {
		t.Fatalf("get: %v", err)
	}
	if s := summary("backend.get", status.OK); s.Count == 0 {
		t.Error("backend.get span not recorded")
	}

	// Failures land under their status code, not OK.
	if _, _, err := e.b.GetDocument(ctx, e.dbID, priv, doc.MustName("/spans/missing"), 0); err == nil {
		t.Fatal("expected NotFound")
	}
	if s := summary("backend.get", status.NotFound); s.Count == 0 {
		t.Error("backend.get NotFound span not recorded")
	}
}

// A commit whose context is already done never reaches Spanner: the
// scheduler rejects it DeadlineExceeded and no spanner.txn.commit span
// is recorded.
func TestExpiredCommitNeverReachesSpanner(t *testing.T) {
	e := newEnv(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ctx, summary := spanRecorder(ctx, e.dbID)

	_, err := e.b.Commit(ctx, e.dbID, priv, []WriteOp{
		{Kind: OpSet, Name: doc.MustName("/spans/never"), Fields: map[string]doc.Value{}},
	})
	if status.CodeOf(err) != status.DeadlineExceeded {
		t.Fatalf("commit code = %v (%v), want DeadlineExceeded", status.CodeOf(err), err)
	}
	for code := status.OK; code <= status.Internal; code++ {
		if s := summary("spanner.txn.commit", code); s.Count != 0 {
			t.Fatalf("spanner.txn.commit ran %d times (%v) for expired work, want 0", s.Count, code)
		}
	}
	if s := summary("backend.commit", status.DeadlineExceeded); s.Count != 1 {
		t.Fatalf("backend.commit DeadlineExceeded count = %d, want 1", s.Count)
	}
	// The document must not exist.
	if _, _, err := e.b.GetDocument(context.Background(), e.dbID, priv, doc.MustName("/spans/never"), 0); status.CodeOf(err) != status.NotFound {
		t.Fatalf("get after expired commit = %v, want NotFound", err)
	}
}
