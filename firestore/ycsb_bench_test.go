package firestore

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"firestore/internal/core"
)

// BenchmarkYCSBA is the benchmark's ycsb_a_mem workload as a Go
// benchmark, so a profile of it can be taken with the standard toolchain
// (EXPERIMENTS.md "COMMIT"): 50/50 Get/Set of one 900-byte binary field
// over 10 000 preloaded documents, model off, through the SDK and the
// fair scheduler, one closed loop per benchmark goroutine.
func BenchmarkYCSBA(b *testing.B) {
	const records, recordSize = 10000, 900
	region := core.NewRegion(core.Config{
		ClockEpsilon: time.Nanosecond, SchedulerWorkers: 2, TraceSampleProb: -1,
	})
	defer region.Close()
	if _, err := region.CreateDatabase("app"); err != nil {
		b.Fatal(err)
	}
	c := NewClient(region, "app")
	ctx := context.Background()
	col := c.Collection("ycsb")
	refs := make([]*DocumentRef, records)
	rng := rand.New(rand.NewSource(1))
	value := func() []byte {
		v := make([]byte, recordSize)
		rng.Read(v)
		return v
	}
	for i := range refs {
		refs[i] = col.Doc(fmt.Sprintf("user%08d", i))
		if err := refs[i].Set(ctx, map[string]any{"field0": value()}); err != nil {
			b.Fatal(err)
		}
	}
	pool := make([][]byte, 64)
	for i := range pool {
		pool[i] = value()
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		r := rand.New(rand.NewSource(rand.Int63()))
		for pb.Next() {
			ref := refs[r.Intn(records)]
			if r.Intn(2) == 0 {
				if _, err := ref.Get(ctx); err != nil {
					b.Error(err)
					return
				}
				continue
			}
			v := make([]byte, recordSize) // as the benchmark's generator builds a value
			copy(v, pool[r.Intn(len(pool))])
			if err := ref.Set(ctx, map[string]any{"field0": v}); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
