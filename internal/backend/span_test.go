package backend

import (
	"context"
	"testing"

	"firestore/internal/doc"
	"firestore/internal/reqctx"
	"firestore/internal/status"
)

// A commit traced through the stack lands one sample in each layer's
// span histogram: backend.commit and, below it, spanner.txn.commit. This
// is the per-layer latency breakdown the bench's -spans flag prints.
func TestCommitRecordsPerLayerSpans(t *testing.T) {
	e := newEnv(t)
	rec := reqctx.NewRecorder()
	ctx := reqctx.WithRecorder(context.Background(), rec)
	ctx = reqctx.With(ctx, reqctx.Meta{RequestID: "span-test", DB: e.dbID})

	if _, err := e.b.Commit(ctx, e.dbID, priv, []WriteOp{
		{Kind: OpSet, Name: doc.MustName("/spans/one"), Fields: map[string]doc.Value{"v": doc.Int(1)}},
	}); err != nil {
		t.Fatalf("commit: %v", err)
	}

	for _, span := range []string{"backend.commit", "spanner.txn.commit"} {
		s := rec.CodeSummary(span, status.OK)
		if s.Count == 0 {
			t.Errorf("span %q: no OK samples recorded (spans: %v)", span, rec.Spans())
		}
		if s.P50 <= 0 {
			t.Errorf("span %q: p50 = %v, want > 0", span, s.P50)
		}
	}

	// Reads record their own spans.
	if _, _, err := e.b.GetDocument(ctx, e.dbID, priv, doc.MustName("/spans/one"), 0); err != nil {
		t.Fatalf("get: %v", err)
	}
	if s := rec.CodeSummary("backend.get", status.OK); s.Count == 0 {
		t.Error("backend.get span not recorded")
	}

	// Failures land under their status code, not OK.
	if _, _, err := e.b.GetDocument(ctx, e.dbID, priv, doc.MustName("/spans/missing"), 0); err == nil {
		t.Fatal("expected NotFound")
	}
	if s := rec.CodeSummary("backend.get", status.NotFound); s.Count == 0 {
		t.Error("backend.get NotFound span not recorded")
	}
}

// A commit whose context is already done never reaches Spanner: the
// scheduler rejects it DeadlineExceeded and no spanner.txn.commit span
// is recorded.
func TestExpiredCommitNeverReachesSpanner(t *testing.T) {
	e := newEnv(t)
	rec := reqctx.NewRecorder()
	ctx := reqctx.WithRecorder(context.Background(), rec)
	ctx, cancel := context.WithCancel(ctx)
	cancel()

	_, err := e.b.Commit(ctx, e.dbID, priv, []WriteOp{
		{Kind: OpSet, Name: doc.MustName("/spans/never"), Fields: map[string]doc.Value{}},
	})
	if status.CodeOf(err) != status.DeadlineExceeded {
		t.Fatalf("commit code = %v (%v), want DeadlineExceeded", status.CodeOf(err), err)
	}
	if s := rec.Summary("spanner.txn.commit"); s.Count != 0 {
		t.Fatalf("spanner.txn.commit ran %d times for expired work, want 0", s.Count)
	}
	if s := rec.CodeSummary("backend.commit", status.DeadlineExceeded); s.Count != 1 {
		t.Fatalf("backend.commit DeadlineExceeded count = %d, want 1", s.Count)
	}
	// The document must not exist.
	if _, _, err := e.b.GetDocument(context.Background(), e.dbID, priv, doc.MustName("/spans/never"), 0); status.CodeOf(err) != status.NotFound {
		t.Fatalf("get after expired commit = %v, want NotFound", err)
	}
}
