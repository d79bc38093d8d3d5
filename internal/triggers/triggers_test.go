// The tests drive the service through the Backend, which imports it
// (through catalog), so they live outside the package.
package triggers_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"firestore/internal/backend"
	"firestore/internal/catalog"
	"firestore/internal/doc"
	"firestore/internal/fault"
	"firestore/internal/rtcache"
	"firestore/internal/spanner"
	"firestore/internal/triggers"
	"firestore/internal/truetime"
)

type env struct {
	b   *backend.Backend
	svc *triggers.Service
}

func newEnv(t *testing.T) *env {
	t.Helper()
	sp := spanner.New(spanner.Config{Clock: truetime.NewSystem(10 * time.Microsecond)})
	cat := catalog.New([]*spanner.DB{sp})
	db, err := cat.Create("app")
	if err != nil {
		t.Fatal(err)
	}
	b := backend.New(backend.Config{Catalog: cat})
	t.Cleanup(db.Triggers.Close)
	return &env{b: b, svc: db.Triggers}
}

var priv = backend.Principal{Privileged: true}

func waitHandled(t *testing.T, svc *triggers.Service, want int64) {
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
	e.svc.OnWrite("ratings", func(_ context.Context, ch triggers.Change) error {
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
	bump := func(key string) triggers.Handler {
		return func(context.Context, triggers.Change) error {
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
	e.svc.OnWrite("*", func(context.Context, triggers.Change) error { return errors.New("boom") })
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
	e.svc.OnWrite("*", func(context.Context, triggers.Change) error {
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

// TestChangeCarriesCommitTimes: a change is stamped with the timestamp
// Commit returned, and its documents carry resolved times — the new
// version's update time is the commit's, the old one's what a read of it
// would have shown.
func TestChangeCarriesCommitTimes(t *testing.T) {
	e := newEnv(t)
	changes := make(chan triggers.Change, 2)
	e.svc.OnWrite("c", func(_ context.Context, ch triggers.Change) error {
		changes <- ch
		return nil
	})
	ctx := context.Background()
	n := doc.MustName("/c/x")
	ts1, err := e.b.Commit(ctx, "app", priv, []backend.WriteOp{{Kind: backend.OpSet, Name: n, Fields: map[string]doc.Value{"a": doc.Int(1)}}})
	if err != nil {
		t.Fatal(err)
	}
	ts2, err := e.b.Commit(ctx, "app", priv, []backend.WriteOp{{Kind: backend.OpSet, Name: n, Fields: map[string]doc.Value{"a": doc.Int(2)}}})
	if err != nil {
		t.Fatal(err)
	}
	create, update := <-changes, <-changes
	if create.TS != ts1 || create.Old != nil || create.New.UpdateTime != ts1 || create.New.CreateTime != ts1 {
		t.Errorf("create: ts %d, old %v, new times %d/%d, want all %d", create.TS, create.Old, create.New.CreateTime, create.New.UpdateTime, ts1)
	}
	if update.TS != ts2 || update.New.UpdateTime != ts2 || update.New.CreateTime != ts1 {
		t.Errorf("update: ts %d, new times %d/%d, want %d/%d at %d", update.TS, update.New.CreateTime, update.New.UpdateTime, ts1, ts2, ts2)
	}
	if update.Old.UpdateTime != ts1 || update.Old.CreateTime != ts1 || update.Old.Fields["a"].IntVal() != 1 {
		t.Errorf("update: old = %v at %d/%d, want a=1 at %d", update.Old.Fields, update.Old.CreateTime, update.Old.UpdateTime, ts1)
	}
	if update.New.Fields["a"].IntVal() != 2 || update.DB != "app" || update.Name.String() != "/c/x" {
		t.Errorf("update: %s in %s = %v", update.Name, update.DB, update.New.Fields)
	}
}

// TestDispatchCostFollowsTriggers: with no trigger registered a commit
// hands its change to nothing — the hand-off returns before its fault
// site, let alone the queue — and once one is registered the next commit
// is delivered.
func TestDispatchCostFollowsTriggers(t *testing.T) {
	e := newEnv(t)
	fault.SetSeed(1)
	if err := fault.Enable(fault.Spec{Site: fault.TriggersDeliver, Mode: fault.ModeDuplicate}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Reset)
	ctx := context.Background()
	write := func() {
		t.Helper()
		if _, err := e.b.Commit(ctx, "app", priv, []backend.WriteOp{{Kind: backend.OpSet, Name: doc.MustName("/c/x")}}); err != nil {
			t.Fatal(err)
		}
	}
	write()
	if got := fault.Injected(fault.TriggersDeliver); got != 0 {
		t.Fatalf("a commit with no trigger registered reached the hand-off %d times", got)
	}
	e.svc.OnWrite("c", func(context.Context, triggers.Change) error { return nil })
	write()
	waitHandled(t, e.svc, 2) // duplicated, once
	if got := fault.Injected(fault.TriggersDeliver); got != 1 {
		t.Fatalf("hand-off reached %d times, want 1", got)
	}
	if e.svc.Dropped() != 0 {
		t.Fatalf("dropped = %d", e.svc.Dropped())
	}
}

// TestQueueOverflowCounted: a change that finds the queue full is dropped
// without stalling the commit, and counted.
func TestQueueOverflowCounted(t *testing.T) {
	svc := triggers.New("app")
	defer svc.Close()
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock() // before Close, which waits for the handler
	svc.OnWrite("*", func(context.Context, triggers.Change) error {
		<-release
		return nil
	})
	muts := []rtcache.Mutation{{Name: doc.MustName("/c/x"), New: &doc.Document{Name: doc.MustName("/c/x")}}}
	const sent = 5000 // one is taken by the blocked handler, at most 4096 more wait
	for i := 1; i <= sent; i++ {
		svc.Deliver(context.Background(), truetime.Timestamp(i), muts)
	}
	dropped := svc.Dropped()
	if dropped < sent-4097 || dropped > sent-4096 {
		t.Fatalf("dropped = %d of %d, want %d or %d", dropped, sent, sent-4097, sent-4096)
	}
	unblock()
	waitHandled(t, svc, sent-dropped)
	if svc.Handled() != sent-dropped {
		t.Fatalf("handled = %d, want %d", svc.Handled(), sent-dropped)
	}
}
