package triggers

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"firestore/internal/backend"
	"firestore/internal/catalog"
	"firestore/internal/doc"
	"firestore/internal/encoding"
	"firestore/internal/spanner"
	"firestore/internal/truetime"
)

type env struct {
	b   *backend.Backend
	sp  *spanner.DB
	svc *Service
}

func newEnv(t *testing.T) *env {
	t.Helper()
	sp := spanner.New(spanner.Config{Clock: truetime.NewSystem(10 * time.Microsecond)})
	cat := catalog.New([]*spanner.DB{sp})
	cat.Create("app")
	b := backend.New(backend.Config{Catalog: cat})
	svc := New(sp, "app")
	t.Cleanup(svc.Close)
	return &env{b: b, sp: sp, svc: svc}
}

var priv = backend.Principal{Privileged: true}

func waitHandled(t *testing.T, svc *Service, want int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if svc.Handled() >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("handled = %d, want %d", svc.Handled(), want)
}

func TestTriggerLifecycle(t *testing.T) {
	e := newEnv(t)
	var mu sync.Mutex
	var kinds []string
	e.svc.OnWrite("ratings", func(_ context.Context, ch Change) error {
		mu.Lock()
		kinds = append(kinds, ch.Kind())
		mu.Unlock()
		return nil
	})
	ctx := context.Background()
	n := doc.MustName("/restaurants/one/ratings/1")
	e.b.Commit(ctx, "app", priv, []backend.WriteOp{{Kind: backend.OpCreate, Name: n, Fields: map[string]doc.Value{"r": doc.Int(1)}}})
	e.b.Commit(ctx, "app", priv, []backend.WriteOp{{Kind: backend.OpSet, Name: n, Fields: map[string]doc.Value{"r": doc.Int(2)}}})
	e.b.Commit(ctx, "app", priv, []backend.WriteOp{{Kind: backend.OpDelete, Name: n}})
	waitHandled(t, e.svc, 3)
	mu.Lock()
	defer mu.Unlock()
	if len(kinds) != 3 || kinds[0] != "create" || kinds[1] != "update" || kinds[2] != "delete" {
		t.Fatalf("kinds = %v", kinds)
	}
}

func TestTriggerCollectionMatching(t *testing.T) {
	e := newEnv(t)
	var count sync.Map
	bump := func(key string) Handler {
		return func(context.Context, Change) error {
			v, _ := count.LoadOrStore(key, new(int64))
			*(v.(*int64))++
			return nil
		}
	}
	e.svc.OnWrite("*", bump("star"))
	e.svc.OnWrite("ratings", bump("byID"))
	e.svc.OnWrite("/restaurants/one/ratings", bump("byPath"))
	ctx := context.Background()
	e.b.Commit(ctx, "app", priv, []backend.WriteOp{{Kind: backend.OpSet, Name: doc.MustName("/restaurants/one/ratings/1"), Fields: nil}})
	e.b.Commit(ctx, "app", priv, []backend.WriteOp{{Kind: backend.OpSet, Name: doc.MustName("/restaurants/two/ratings/1"), Fields: nil}})
	e.b.Commit(ctx, "app", priv, []backend.WriteOp{{Kind: backend.OpSet, Name: doc.MustName("/other/x"), Fields: nil}})
	waitHandled(t, e.svc, 3+2+1)
	get := func(key string) int64 {
		v, ok := count.Load(key)
		if !ok {
			return 0
		}
		return *(v.(*int64))
	}
	if get("star") != 3 || get("byID") != 2 || get("byPath") != 1 {
		t.Fatalf("counts: star=%d byID=%d byPath=%d", get("star"), get("byID"), get("byPath"))
	}
}

func TestTriggerHandlerErrorCounted(t *testing.T) {
	e := newEnv(t)
	e.svc.OnWrite("*", func(context.Context, Change) error { return errors.New("boom") })
	e.b.Commit(context.Background(), "app", priv, []backend.WriteOp{{Kind: backend.OpSet, Name: doc.MustName("/c/x"), Fields: nil}})
	deadline := time.Now().Add(2 * time.Second)
	for e.svc.Errors() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if e.svc.Errors() != 1 {
		t.Fatalf("errors = %d", e.svc.Errors())
	}
}

func TestAbortedWriteNoTrigger(t *testing.T) {
	e := newEnv(t)
	fired := make(chan struct{}, 1)
	e.svc.OnWrite("*", func(context.Context, Change) error {
		fired <- struct{}{}
		return nil
	})
	// A create over an existing doc fails: no trigger.
	n := doc.MustName("/c/x")
	e.b.Commit(context.Background(), "app", priv, []backend.WriteOp{{Kind: backend.OpCreate, Name: n, Fields: nil}})
	<-fired // the successful create fires once
	if _, err := e.b.Commit(context.Background(), "app", priv, []backend.WriteOp{{Kind: backend.OpCreate, Name: n, Fields: nil}}); err == nil {
		t.Fatal("expected create conflict")
	}
	select {
	case <-fired:
		t.Fatal("aborted write fired a trigger")
	case <-time.After(50 * time.Millisecond):
	}
}

// TestDispatchCostFollowsTriggers: a delivered change is decoded only as
// far as the registered triggers need it. The payloads here name a
// document and then carry garbage where the two document blobs belong,
// so any decode of the documents shows up in Errors.
func TestDispatchCostFollowsTriggers(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	send := func(name string) {
		t.Helper()
		txn := e.sp.Begin()
		txn.Put([]byte("row/"+name), nil)
		txn.Message(backend.TriggerTopic("app"), append(encoding.AppendEscaped(nil, name), 0, 0, 0, 3, 0xde, 0xad))
		if _, err := txn.Commit(ctx, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	// barrier returns once everything sent before it has been dispatched:
	// a real commit handled by the "sync" trigger, on the same queue.
	handled := int64(0)
	barrier := func() {
		t.Helper()
		e.b.Commit(ctx, "app", priv, []backend.WriteOp{{Kind: backend.OpSet, Name: doc.MustName("/sync/s"), Fields: nil}})
		handled++
		waitHandled(t, e.svc, handled)
	}

	send("/ratings/no-trigger-yet") // nothing registered: the payload is not touched
	e.svc.OnWrite("sync", func(context.Context, Change) error { return nil })
	barrier()
	if got := e.svc.Errors(); got != 0 {
		t.Fatalf("with no trigger registered the payload was decoded: %d errors", got)
	}
	send("/ratings/not-matching") // a trigger exists, but for another collection: name only
	barrier()
	if got := e.svc.Errors(); got != 0 {
		t.Fatalf("a change no trigger matches had its documents decoded: %d errors", got)
	}
	e.svc.OnWrite("ratings", func(context.Context, Change) error { return nil })
	send("/ratings/matching") // now the documents are needed, and they are garbage
	barrier()
	if got := e.svc.Errors(); got != 1 {
		t.Fatalf("errors = %d after a matching trigger met a corrupt payload, want 1", got)
	}
}
