package backend

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"firestore/internal/catalog"
	"firestore/internal/doc"
	"firestore/internal/index"
	"firestore/internal/query"
	"firestore/internal/spanner"
	"firestore/internal/status"
	"firestore/internal/storage"
	"firestore/internal/truetime"
)

// TestReadBelowRetentionIsRefused writes one document 20 times, 2 s apart
// on a manual clock, so the engine trims its oldest versions, and then
// queries, counts and gets it at the second write's timestamp. The
// document existed then: each read must be refused, naming the horizon,
// rather than answer without it (a get must not call it absent).
func TestReadBelowRetentionIsRefused(t *testing.T) {
	clock := truetime.NewManual(1, 0)
	cat := catalog.New([]*spanner.DB{spanner.New(spanner.Config{Clock: clock})})
	b := New(Config{Catalog: cat})
	if _, err := cat.Create("app"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var stamps []truetime.Timestamp
	for i := 0; i < 20; i++ {
		clock.Advance(2 * time.Second)
		done := make(chan error)
		go func() {
			ts, err := b.Commit(ctx, "app", priv, []WriteOp{{Kind: OpSet, Name: doc.MustName("/c/d"), Fields: map[string]doc.Value{"v": doc.Int(int64(i))}}})
			stamps = append(stamps, ts)
			done <- err
		}()
		for waiting := true; waiting; { // commit wait ends once the clock moves
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
				waiting = false
			case <-time.After(time.Millisecond):
				clock.Advance(time.Microsecond)
			}
		}
	}
	q := &query.Query{Collection: doc.MustCollection("/c")}
	res, _, err := b.RunQuery(ctx, "app", priv, q, nil, stamps[1])
	horizon := clock.Now().Latest.Add(spanner.MaxCommitLead - storage.GCRetention)
	if !errors.Is(err, ErrBelowHorizon) || status.CodeOf(err) != status.FailedPrecondition || !strings.Contains(err.Error(), fmt.Sprint(int64(horizon))) {
		t.Fatalf("query at the second write's timestamp = %v, %v; want FailedPrecondition naming the horizon %d", res, err, horizon)
	}
	if _, _, err := b.RunAggregation(ctx, "app", priv, q, []query.Aggregation{{Kind: query.AggCount, Alias: "n"}}, stamps[1]); !errors.Is(err, ErrBelowHorizon) {
		t.Fatalf("count at the second write's timestamp = %v, want ErrBelowHorizon", err)
	}
	if d, _, err := b.GetDocument(ctx, "app", priv, doc.MustName("/c/d"), stamps[1]); !errors.Is(err, ErrBelowHorizon) {
		t.Fatalf("get at the second write's timestamp = %v, %v; want ErrBelowHorizon", d, err)
	}
	if d, _, err := b.GetDocument(ctx, "app", priv, doc.MustName("/c/d"), stamps[19]); err != nil || d.Fields["v"].IntVal() != 19 {
		t.Fatalf("get at the last write's timestamp = %v, %v; want the last version", d, err)
	}
	if res, _, err := b.RunQuery(ctx, "app", priv, q, nil, stamps[19]); err != nil || len(res.Docs) != 1 {
		t.Fatalf("query at the last write's timestamp = %v, %v; want the document", res, err)
	}
}

// FuzzPageToken: a page token is bytes from outside the process. Whatever
// it holds, RunQuery returns a page, InvalidArgument or
// FailedPrecondition; it never panics and never reads above TrueTime's
// now.
func FuzzPageToken(f *testing.F) {
	e := newEnv(f)
	ctx := context.Background()
	var ops []WriteOp
	for i := 0; i < 30; i++ {
		ops = append(ops, WriteOp{Kind: OpSet, Name: doc.MustName(fmt.Sprintf("/c/d%02d", i)), Fields: map[string]doc.Value{
			"a": doc.Int(int64(i % 3)), "b": doc.Int(int64(i % 5)), "n": doc.Int(int64(i)),
		}})
	}
	if _, err := e.b.Commit(ctx, e.dbID, priv, ops); err != nil {
		f.Fatal(err)
	}
	coll := doc.MustCollection("/c")
	queries := []*query.Query{
		{Collection: coll},
		{Collection: coll, Orders: []query.Order{{Path: "n", Dir: index.Descending}}},
		{Collection: coll, Predicates: []query.Predicate{{Path: "a", Op: query.Eq, Value: doc.Int(1)}, {Path: "b", Op: query.Eq, Value: doc.Int(2)}}},
		{Collection: coll, Orders: []query.Order{{Path: "n", Dir: index.Ascending}}, Limit: 10, Offset: 2},
	}
	db, err := e.cat.Get(e.dbID)
	if err != nil {
		f.Fatal(err)
	}
	now := db.Spanner.StrongReadTimestamp()
	for i, pos := range []string{"d07", "\x80\x01", ""} {
		tok := pageToken{readTS: now, emitted: i, pos: []byte(pos)}.encode()
		f.Add(uint8(i), tok)
		f.Add(uint8(i+1), tok[:len(tok)-1])
	}
	f.Add(uint8(3), pageToken{readTS: now.Add(time.Hour), emitted: 1, pos: []byte("x")}.encode())
	f.Add(uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, which uint8, token []byte) {
		res, ts, err := e.b.RunQuery(ctx, e.dbID, priv, queries[int(which)%len(queries)], token, 0)
		switch code := status.CodeOf(err); {
		case err == nil:
			if latest := db.Spanner.StrongReadTimestamp(); ts > latest {
				t.Fatalf("page read at %d, above TrueTime's now %d", ts, latest)
			}
			if len(res.Docs) > query.MaxResultSize {
				t.Fatalf("page of %d documents", len(res.Docs))
			}
		case code != status.InvalidArgument && code != status.FailedPrecondition:
			t.Fatalf("token %x: %v (%s), want a page, InvalidArgument or FailedPrecondition", token, err, code)
		}
	})
}
