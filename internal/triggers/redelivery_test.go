package triggers_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"firestore/internal/backend"
	"firestore/internal/doc"
	"firestore/internal/fault"
	"firestore/internal/triggers"
)

// TestAtLeastOnceRedeliveryTolerated verifies the commit → triggers
// hand-off under redelivery: production delivery is at-least-once, so a
// handler must tolerate the same change arriving more than once. The
// triggers.deliver fault duplicates every commit's hand-off; an
// idempotent handler (keyed by document name + commit timestamp, the
// natural dedup key for a change) must converge to exactly one applied
// effect per commit even though delivery counts double.
func TestAtLeastOnceRedeliveryTolerated(t *testing.T) {
	e := newEnv(t)
	fault.SetSeed(1)
	if err := fault.Enable(fault.Spec{Site: fault.TriggersDeliver, Mode: fault.ModeDuplicate}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Reset)

	var mu sync.Mutex
	applied := map[string]int64{} // dedup key -> applied rating
	deliveries := 0
	e.svc.OnWrite("ratings", func(_ context.Context, ch triggers.Change) error {
		mu.Lock()
		defer mu.Unlock()
		deliveries++
		key := fmt.Sprintf("%s@%d", ch.Name, ch.TS)
		if _, dup := applied[key]; dup {
			return nil // redelivery: already applied
		}
		applied[key] = ch.New.Fields["r"].IntVal()
		return nil
	})

	ctx := context.Background()
	const writes = 3
	for i := 0; i < writes; i++ {
		n := doc.MustName(fmt.Sprintf("/restaurants/one/ratings/%d", i))
		if _, err := e.b.Commit(ctx, "app", priv, []backend.WriteOp{
			{Kind: backend.OpSet, Name: n, Fields: map[string]doc.Value{"r": doc.Int(int64(i))}},
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Every hand-off is duplicated, so the handler runs 2x per write...
	waitHandled(t, e.svc, 2*writes)
	if got := fault.Injected(fault.TriggersDeliver); got < writes {
		t.Fatalf("duplicate fault fired %d times, want >= %d", got, writes)
	}

	// ...but the idempotent state reflects each commit exactly once.
	mu.Lock()
	defer mu.Unlock()
	if deliveries != 2*writes {
		t.Fatalf("deliveries = %d, want %d (each change delivered twice)", deliveries, 2*writes)
	}
	if len(applied) != writes {
		t.Fatalf("applied %d distinct changes, want %d", len(applied), writes)
	}
	for key, r := range applied {
		if r < 0 || r >= int64(writes) {
			t.Fatalf("applied[%s] = %d, outside written range", key, r)
		}
	}
}
