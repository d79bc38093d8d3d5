package frontend

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"firestore/internal/backend"
	"firestore/internal/doc"
	"firestore/internal/fault"
	"firestore/internal/index"
	"firestore/internal/query"
)

// TestStreamConvergesToQuery is the §VI A/B-comparison idea applied to
// the real-time pipeline: apply a random concurrent workload while a
// listener folds the delta stream into a result set; once the system
// quiesces, the folded set must exactly equal a freshly executed query.
// Run for several query shapes, including a predicate and a desc order.
func TestStreamConvergesToQuery(t *testing.T) {
	shapes := []*query.Query{
		{Collection: doc.MustCollection("/items")},
		{
			Collection: doc.MustCollection("/items"),
			Predicates: []query.Predicate{{Path: "n", Op: query.Ge, Value: doc.Int(50)}},
		},
		{
			Collection: doc.MustCollection("/items"),
			Orders:     []query.Order{{Path: "n", Dir: index.Descending}},
		},
	}
	for si, q := range shapes {
		t.Run(fmt.Sprint(si), func(t *testing.T) {
			e := newEnv(t)
			ctx := context.Background()

			conn := e.f.NewConn(e.dbID, priv)
			defer conn.Close()
			target, err := conn.Listen(ctx, q)
			if err != nil {
				t.Fatal(err)
			}

			// Fold the stream into a result set in the background.
			folded := map[string]*doc.Document{}
			var mu sync.Mutex
			done := make(chan struct{})
			go func() {
				defer close(done)
				for ev := range conn.Events() {
					if ev.TargetID != target {
						continue
					}
					mu.Lock()
					fold(folded, ev)
					mu.Unlock()
				}
			}()

			// Concurrent random workload: sets, updates, deletes.
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(si*100 + w)))
					for i := 0; i < 60; i++ {
						id := fmt.Sprintf("d%02d", rng.Intn(30))
						name := doc.MustName("/items/" + id)
						var op backend.WriteOp
						if rng.Intn(5) == 0 {
							op = backend.WriteOp{Kind: backend.OpDelete, Name: name}
						} else {
							op = backend.WriteOp{Kind: backend.OpSet, Name: name,
								Fields: map[string]doc.Value{"n": doc.Int(int64(rng.Intn(100)))}}
						}
						e.b.Commit(ctx, e.dbID, priv, []backend.WriteOp{op})
					}
				}(w)
			}
			wg.Wait()

			// Quiesce: watermarks pass the last commit within a few
			// heartbeats.
			deadline := time.Now().Add(5 * time.Second)
			var want []*doc.Document
			for {
				res, _, err := e.b.RunQuery(ctx, e.dbID, priv, q, nil, 0)
				if err != nil {
					t.Fatal(err)
				}
				want = res.Docs
				if equalSets(t, q, folded, want, &mu) {
					break
				}
				if time.Now().After(deadline) {
					mu.Lock()
					t.Fatalf("stream did not converge: folded=%d query=%d", len(folded), len(want))
				}
				time.Sleep(5 * time.Millisecond)
			}
			if n := e.lateUpdates(); n != 0 {
				t.Fatalf("frontend.late_updates = %d: a watermark overtook an update it covers", n)
			}
		})
	}
}

// fold applies one snapshot event to a client's view of its target: an
// Initial snapshot replaces the view, a delta patches it.
func fold(view map[string]*doc.Document, ev SnapshotEvent) {
	if ev.Initial {
		clear(view)
	}
	for _, d := range ev.Added {
		view[d.Name.String()] = d
	}
	for _, d := range ev.Modified {
		view[d.Name.String()] = d
	}
	for _, n := range ev.Removed {
		delete(view, n.String())
	}
}

func equalSets(t *testing.T, q *query.Query, folded map[string]*doc.Document, want []*doc.Document, mu *sync.Mutex) bool {
	t.Helper()
	mu.Lock()
	defer mu.Unlock()
	if len(folded) != len(want) {
		return false
	}
	for _, d := range want {
		f, ok := folded[d.Name.String()]
		if !ok || !f.Equal(d) {
			return false
		}
	}
	return true
}

// TestStreamConvergesUnderResets repeats the convergence check while
// one Accept in five is dropped, forcing out-of-sync resets and requery
// recovery mid-stream: after each write TrueTime jumps past its max
// commit timestamp, so a lost Accept expires on the next heartbeat.
func TestStreamConvergesUnderResets(t *testing.T) {
	e := newEnv(t)
	arm(t, fault.Spec{Site: fault.BackendAccept, Mode: fault.ModeDrop, Prob: 0.2})
	ctx := context.Background()
	q := &query.Query{Collection: doc.MustCollection("/items")}
	conn := e.f.NewConn(e.dbID, priv)
	defer conn.Close()
	target, err := conn.Listen(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	folded := map[string]*doc.Document{}
	var mu sync.Mutex
	go func() {
		for ev := range conn.Events() {
			if ev.TargetID != target {
				continue
			}
			mu.Lock()
			fold(folded, ev)
			mu.Unlock()
		}
	}()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 40; i++ {
		id := fmt.Sprintf("d%02d", rng.Intn(15))
		e.b.Commit(ctx, e.dbID, priv, []backend.WriteOp{{
			Kind: backend.OpSet, Name: doc.MustName("/items/" + id),
			Fields: map[string]doc.Value{"n": doc.Int(int64(i))},
		}})
		e.pastMaxCommitTS()
		time.Sleep(2 * time.Millisecond)
	}
	if fault.Injected(fault.BackendAccept) == 0 {
		t.Fatal("no Accept was dropped: the run exercised no reset")
	}
	deadline := time.Now().Add(8 * time.Second)
	for {
		res, _, err := e.b.RunQuery(ctx, e.dbID, priv, q, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if equalSets(t, q, folded, res.Docs, &mu) {
			if n := e.lateUpdates(); n != 0 {
				t.Fatalf("frontend.late_updates = %d under resets", n)
			}
			return
		}
		if time.Now().After(deadline) {
			mu.Lock()
			t.Fatalf("did not converge under resets: folded=%d query=%d", len(folded), len(res.Docs))
		}
		time.Sleep(10 * time.Millisecond)
	}
}
