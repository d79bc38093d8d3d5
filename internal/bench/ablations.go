package bench

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"firestore/internal/backend"
	"firestore/internal/core"
	"firestore/internal/doc"
	"firestore/internal/index"
	"firestore/internal/obs"
	"firestore/internal/query"
	"firestore/internal/wfq"
)

// AblZigzag compares the three ways to answer the paper's two-equality
// query (§IV-D3): a zig-zag join of automatic single-field indexes, a
// single user-defined composite index, and a naive full collection scan —
// the design-choice ablation behind "Firestore joins existing indexes".
func AblZigzag(opts Options) *Table {
	region := core.NewRegion(core.Config{Seed: opts.Seed})
	defer region.Close()
	region.CreateDatabase("abl")
	ctx := context.Background()
	n := opts.scaledN(4000, 500)
	opts.logf("abl zigzag: seeding %d docs", n)

	cities := []string{"SF", "NY", "LA", "CHI"}
	types := []string{"BBQ", "Sushi", "Pizza", "Thai"}
	for i := 0; i < n; i++ {
		region.Commit(ctx, "abl", privileged, []backend.WriteOp{{
			Kind: backend.OpSet, Name: doc.MustName(fmt.Sprintf("/restaurants/r%06d", i)),
			Fields: map[string]doc.Value{
				"city": doc.String(cities[i%len(cities)]),
				"type": doc.String(types[(i/len(cities))%len(types)]),
			},
		}})
	}
	q := &query.Query{
		Collection: doc.MustCollection("/restaurants"),
		Predicates: []query.Predicate{
			{Path: "city", Op: query.Eq, Value: doc.String("SF")},
			{Path: "type", Op: query.Eq, Value: doc.String("BBQ")},
		},
	}
	iters := opts.scaledN(50, 10)

	measure := func(run func() (int, int, error)) (time.Duration, int, int) {
		var h obs.Histogram
		var docs, scanned int
		for i := 0; i < iters; i++ {
			start := time.Now()
			d, s, err := run()
			if err != nil {
				opts.logf("abl zigzag: %v", err)
				return 0, 0, 0
			}
			h.Record(time.Since(start))
			docs, scanned = d, s
		}
		return h.Percentile(0.5), docs, scanned
	}

	// Zig-zag join of automatic indexes.
	zzLat, zzDocs, zzScanned := measure(func() (int, int, error) {
		res, _, err := region.RunQuery(ctx, "abl", privileged, q, nil, 0)
		if err != nil {
			return 0, 0, err
		}
		return len(res.Docs), res.ScannedEntries, nil
	})

	// Single composite index.
	comp := index.CompositeDef("restaurants",
		index.Field{Path: "city", Dir: index.Ascending},
		index.Field{Path: "type", Dir: index.Ascending})
	if err := region.AddCompositeIndex(ctx, "abl", comp); err != nil {
		opts.logf("abl zigzag: backfill: %v", err)
	}
	compLat, compDocs, compScanned := measure(func() (int, int, error) {
		res, _, err := region.RunQuery(ctx, "abl", privileged, q, nil, 0)
		if err != nil {
			return 0, 0, err
		}
		return len(res.Docs), res.ScannedEntries, nil
	})

	// Naive full scan: read every document and filter in memory — what
	// the engine refuses to do online.
	scanLat, scanDocs, scanScanned := measure(func() (int, int, error) {
		full := &query.Query{Collection: q.Collection}
		matched := 0
		visited := 0
		var resume []byte
		for {
			res, _, err := region.RunQuery(ctx, "abl", privileged, full, resume, 0)
			if err != nil {
				return 0, 0, err
			}
			for _, d := range res.Docs {
				visited++
				if q.Matches(d) {
					matched++
				}
			}
			if res.Resume == nil {
				break
			}
			resume = res.Resume
		}
		return matched, visited, nil
	})

	t := &Table{
		ID:      "ABL1",
		Title:   "two-equality query: zig-zag join vs composite index vs full scan",
		Columns: []string{"strategy", "p50 latency", "results", "entries/docs visited"},
	}
	t.AddRow("zig-zag join (auto indexes)", zzLat, zzDocs, zzScanned)
	t.AddRow("composite index", compLat, compDocs, compScanned)
	t.AddRow("full scan + filter", scanLat, scanDocs, scanScanned)
	t.Notes = append(t.Notes,
		"expected: composite < zig-zag << full scan in visited work; all three return identical results",
		"the composite scan visits exactly the result-set entries; zig-zag skips through both single-field indexes")
	return t
}

// AblMultiRegion quantifies the §IV-D2 deployment trade-off: commit
// latency in a regional vs multi-region configuration.
func AblMultiRegion(opts Options) *Table {
	commits := opts.scaledN(200, 40)
	run := func(multi bool) (p50, p99 time.Duration) {
		region := core.NewRegion(core.Config{TimeScale: 0.5, MultiRegion: multi, Seed: opts.Seed})
		defer region.Close()
		region.CreateDatabase("d")
		ctx := context.Background()
		var h obs.Histogram
		for i := 0; i < commits; i++ {
			start := time.Now()
			if _, err := region.Commit(ctx, "d", privileged, []backend.WriteOp{{
				Kind: backend.OpSet, Name: doc.MustName(fmt.Sprintf("/c/x%d", i%32)),
				Fields: map[string]doc.Value{"v": doc.Int(int64(i))},
			}}); err == nil {
				h.Record(time.Since(start))
			}
		}
		return h.Percentile(0.5), h.Percentile(0.99)
	}
	opts.logf("abl multiregion: regional run")
	rp50, rp99 := run(false)
	opts.logf("abl multiregion: multi-region run")
	mp50, mp99 := run(true)
	t := &Table{
		ID:      "ABL2",
		Title:   "write latency: regional vs multi-region replication quorum",
		Columns: []string{"deployment", "p50", "p99"},
	}
	t.AddRow("regional", rp50, rp99)
	t.AddRow("multi-region", mp50, mp99)
	t.Notes = append(t.Notes, "expected: multi-region writes several times slower (wider quorum), as §IV-D2 states")
	return t
}

// AblShedding evaluates queue-depth load shedding (§IV-C): a spike far
// beyond capacity with and without shedding; shedding trades availability
// (errors) for bounded latency of the requests it does serve.
func AblShedding(opts Options) *Table {
	spike := opts.scaledN(2000, 300)
	run := func(maxQueue int) (p99 time.Duration, errCount int64, served int64) {
		region := core.NewRegion(core.Config{
			TimeScale:         0.05,
			SchedulerWorkers:  2,
			SchedulerMaxQueue: maxQueue,
			Seed:              opts.Seed,
			Costs: backend.Costs{
				Read: func(string) time.Duration { return 2 * time.Millisecond },
			},
		})
		defer region.Close()
		region.CreateDatabase("d")
		ctx := context.Background()
		region.Commit(ctx, "d", privileged, []backend.WriteOp{{
			Kind: backend.OpSet, Name: doc.MustName("/c/x"), Fields: map[string]doc.Value{"v": doc.Int(1)},
		}})
		var h obs.Histogram
		var mu sync.Mutex
		var wg sync.WaitGroup
		name := doc.MustName("/c/x")
		for i := 0; i < spike; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				start := time.Now()
				_, _, err := region.GetDocument(ctx, "d", privileged, name, 0)
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					if errors.Is(err, wfq.ErrOverloaded) {
						errCount++
					}
					return
				}
				served++
				h.Record(time.Since(start))
			}()
		}
		wg.Wait()
		return h.Percentile(0.99), errCount, served
	}
	opts.logf("abl shedding: unbounded queue")
	noP99, noErr, noServed := run(0)
	opts.logf("abl shedding: shedding at depth 64")
	shP99, shErr, shServed := run(64)
	t := &Table{
		ID:      "ABL3",
		Title:   fmt.Sprintf("load shedding under a %d-request spike at fixed capacity", spike),
		Columns: []string{"policy", "served", "shed", "served p99"},
	}
	t.AddRow("no shedding", noServed, noErr, noP99)
	t.AddRow("shed at queue depth 64", shServed, shErr, shP99)
	t.Notes = append(t.Notes,
		"expected: without shedding everything is served but tail latency is enormous; with shedding excess work is dropped and served requests keep bounded latency")
	return t
}
