package core_test

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"firestore/firestore"
	"firestore/internal/core"
	"firestore/internal/reqctx"
)

// TestRequestPathAllocs holds a request's allocation count in the
// configuration that serves — the benchmark's modelOff() region: fair
// scheduler on the path, the region's registry fed by every layer, spans
// recorded, head sampling off — rather than in a layer built with its
// instruments left out, through the SDK as the benchmark drives it. It
// runs under both contexts a request arrives with: bare (the benchmark's
// measured window) and carrying the database ID (what the server
// attaches, and what labels spanner's instruments). While each event
// looked its instrument up by name and label map, a YCSB update (one
// 900-byte field, every byte replaced) cost 79 allocations bare and 119
// labelled, a point read 27 (DESIGN.md "Observability").
func TestRequestPathAllocs(t *testing.T) {
	if core.RaceDetector {
		t.Skip("sync.Pool drops entries under -race; allocation counts mean nothing")
	}
	r := core.NewRegion(core.Config{
		Name:             "bench",
		ClockEpsilon:     time.Nanosecond,
		SchedulerWorkers: 2,
		TraceSampleProb:  -1,
	})
	t.Cleanup(r.Close)
	if _, err := r.CreateDatabase("bench"); err != nil {
		t.Fatal(err)
	}
	ref := firestore.NewClient(r, "bench").Collection("ycsb").Doc("user00000042")
	rng := rand.New(rand.NewSource(7))
	values := make([][]byte, 8)
	for i := range values {
		values[i] = make([]byte, 900)
		rng.Read(values[i])
	}
	var ctx context.Context
	i := 0
	update := func() {
		i++
		if err := ref.Set(ctx, map[string]any{"field0": values[i%len(values)]}); err != nil {
			t.Fatal(err)
		}
	}
	read := func() {
		if _, err := ref.Get(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name string
		ctx  context.Context
	}{
		{"bare", context.Background()},
		{"labelled", reqctx.With(context.Background(), reqctx.Meta{RequestID: "c0-1", DB: "bench"})},
	} {
		ctx = c.ctx
		update() // the create, or the first labelled use of each instrument
		read()
		for _, op := range []struct {
			name  string
			fn    func()
			bound float64
		}{{"update", update, 69}, {"point read", read, 22}} {
			got := testing.AllocsPerRun(200, op.fn)
			t.Logf("%s %s: %.1f allocations", c.name, op.name, got)
			if got > op.bound {
				t.Errorf("%s %s allocates %.1f times per request, want <= %.0f", c.name, op.name, got, op.bound)
			}
		}
	}
}
