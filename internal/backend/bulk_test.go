package backend

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"firestore/internal/catalog"
	"firestore/internal/doc"
	"firestore/internal/fault"
	"firestore/internal/rtcache"
	"firestore/internal/spanner"
	"firestore/internal/status"
	"firestore/internal/truetime"
)

func TestCommitBulkPerOpOutcomes(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	set(t, e, "/c/exists", map[string]doc.Value{"v": doc.Int(1)})

	res, err := e.b.CommitBulk(ctx, e.dbID, priv, []WriteOp{
		{Kind: OpSet, Name: doc.MustName("/c/a"), Fields: map[string]doc.Value{"v": doc.Int(10)}},
		{Kind: OpCreate, Name: doc.MustName("/c/exists"), Fields: map[string]doc.Value{"v": doc.Int(2)}},
		{Kind: OpUpdate, Name: doc.MustName("/c/missing"), Fields: map[string]doc.Value{"v": doc.Int(3)}},
		{Kind: OpDelete, Name: doc.MustName("/c/exists")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("got %d results, want 4", len(res))
	}
	if res[0].Err != nil || res[0].TS == 0 {
		t.Errorf("set: %+v", res[0])
	}
	if !errors.Is(res[1].Err, ErrAlreadyExists) {
		t.Errorf("create-existing err = %v, want ErrAlreadyExists", res[1].Err)
	}
	if !errors.Is(res[2].Err, ErrNotFound) {
		t.Errorf("update-missing err = %v, want ErrNotFound", res[2].Err)
	}
	if res[3].Err != nil {
		t.Errorf("delete err = %v", res[3].Err)
	}
	// The failing ops did not poison their groupmates: /c/a landed,
	// /c/exists was deleted.
	if d := get(t, e, "/c/a"); d == nil || d.Fields["v"].IntVal() != 10 {
		t.Errorf("/c/a = %v", d)
	}
	if _, _, err := e.b.GetDocument(ctx, e.dbID, priv, doc.MustName("/c/exists"), 0); !errors.Is(err, ErrNotFound) {
		t.Errorf("/c/exists after delete: err = %v, want ErrNotFound", err)
	}
}

func TestCommitBulkAllOpsFail(t *testing.T) {
	e := newEnv(t)
	res, err := e.b.CommitBulk(context.Background(), e.dbID, priv, []WriteOp{
		{Kind: OpUpdate, Name: doc.MustName("/c/m1"), Fields: map[string]doc.Value{"v": doc.Int(1)}},
		{Kind: OpUpdate, Name: doc.MustName("/c/m2"), Fields: map[string]doc.Value{"v": doc.Int(2)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if !errors.Is(r.Err, ErrNotFound) {
			t.Errorf("res[%d].Err = %v, want ErrNotFound", i, r.Err)
		}
	}
}

// TestCommitBulkAcrossTablets forces the database into several tablets
// and bulk-writes across all of them: every op must succeed through its
// own tablet-local group.
func TestCommitBulkAcrossTablets(t *testing.T) {
	clock := truetime.NewSystem(10 * time.Microsecond)
	sp := spanner.New(spanner.Config{
		Clock:         clock,
		LockTimeout:   300 * time.Millisecond,
		MaxTabletRows: 20,
	})
	cat := catalog.New([]*spanner.DB{sp})
	cache := rtcache.New(rtcache.Config{Clock: clock, Ranges: 4, HeartbeatEvery: time.Millisecond})
	t.Cleanup(cache.Close)
	b := New(Config{Catalog: cat, Cache: cache})
	if _, err := cat.Create("app"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Seed enough rows to trip the row-count splitter.
	for i := 0; i < 100; i++ {
		_, err := b.Commit(ctx, "app", priv, []WriteOp{{
			Kind: OpSet, Name: doc.MustName(fmt.Sprintf("/u/s%03d", i)),
			Fields: map[string]doc.Value{"v": doc.Int(int64(i))},
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	if sp.TabletCount() < 2 {
		t.Skipf("no split after seeding (%d tablets)", sp.TabletCount())
	}

	ops := make([]WriteOp, 60)
	for i := range ops {
		ops[i] = WriteOp{
			Kind: OpSet, Name: doc.MustName(fmt.Sprintf("/u/s%03d", i)),
			Fields: map[string]doc.Value{"v": doc.Int(int64(1000 + i))},
		}
	}
	res, err := b.CommitBulk(ctx, "app", priv, ops)
	if err != nil {
		t.Fatal(err)
	}
	tsSeen := map[truetime.Timestamp]bool{}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("res[%d].Err = %v", i, r.Err)
		}
		tsSeen[r.TS] = true
	}
	// Tablet-local groups commit as separate transactions, so more than
	// one distinct commit timestamp must appear.
	if len(tsSeen) < 2 {
		t.Errorf("all %d ops share one commit TS; expected parallel group commits", len(ops))
	}
	for i := 0; i < 60; i += 17 {
		d, _, err := b.GetDocument(ctx, "app", priv, doc.MustName(fmt.Sprintf("/u/s%03d", i)), 0)
		if err != nil {
			t.Fatal(err)
		}
		if d.Fields["v"].IntVal() != int64(1000+i) {
			t.Errorf("/u/s%03d = %d, want %d", i, d.Fields["v"].IntVal(), 1000+i)
		}
	}
}

func TestCommitBulkGroupErrInjected(t *testing.T) {
	e := newEnv(t)
	// The first group commit loses its replication quorum.
	arm(t, fault.Spec{Site: fault.SpannerCommitQuorum, Mode: fault.ModeError, MaxCount: 1})
	ctx := context.Background()
	ops := []WriteOp{{Kind: OpSet, Name: doc.MustName("/c/x"), Fields: map[string]doc.Value{"v": doc.Int(1)}}}

	res, err := e.b.CommitBulk(ctx, e.dbID, priv, ops)
	if err != nil {
		t.Fatal(err)
	}
	if status.CodeOf(res[0].Err) != status.Unavailable {
		t.Fatalf("first attempt err = %v, want Unavailable", res[0].Err)
	}
	if !status.Retryable(status.CodeOf(res[0].Err)) {
		t.Fatalf("injected error %v not retryable", res[0].Err)
	}
	res, err = e.b.CommitBulk(ctx, e.dbID, priv, ops)
	if err != nil || res[0].Err != nil {
		t.Fatalf("retry: err=%v res=%+v", err, res[0])
	}
	if d := get(t, e, "/c/x"); d == nil {
		t.Fatal("doc missing after retry")
	}
}
