package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"firestore/internal/backend"
	"firestore/internal/core"
	"firestore/internal/doc"
	"firestore/internal/obs"
	"firestore/internal/query"
	"firestore/internal/wfq"
)

// dataShapeRegion builds the §V-B2 environment: size- and row-dependent
// commit latency enabled, pre-split tablets ("the experiment was preceded
// by initializing the database with enough data to ensure that commits
// spanned multiple tablets").
func dataShapeRegion(opts Options) *core.Region {
	region := core.NewRegion(core.Config{
		TimeScale:        0.2,
		CommitBytesPerMB: 40 * time.Millisecond,
		CommitPerRow:     30 * time.Microsecond,
		MaxTabletRows:    64,
		Seed:             opts.Seed,
	})
	region.CreateDatabase("shape")
	ctx := context.Background()
	for i := 0; i < 300; i++ {
		region.Commit(ctx, "shape", privileged, []backend.WriteOp{{
			Kind: backend.OpSet, Name: doc.MustName(fmt.Sprintf("/seed/doc%04d", i)),
			Fields: map[string]doc.Value{"pad": doc.Bytes(make([]byte, 256))},
		}})
	}
	return region
}

// Fig10a measures commit latency vs document size: single-field string
// documents from 10KB to near the 1MiB limit, committed at a steady low
// rate (§V-B2's first experiment).
func Fig10a(opts Options) *Table {
	region := dataShapeRegion(opts)
	defer region.Close()
	ctx := context.Background()
	commits := opts.scaledN(40, 10)

	sizes := []int{10 << 10, 50 << 10, 100 << 10, 500 << 10, 900 << 10}
	t := &Table{
		ID:      "FIG10a",
		Title:   "commit latency vs document size (single string field)",
		Columns: []string{"doc size", "p50", "p99"},
	}
	for _, size := range sizes {
		opts.logf("fig10a: size %dKB", size>>10)
		var h obs.Histogram
		payload := doc.String(string(make([]byte, size)))
		for i := 0; i < commits; i++ {
			name := doc.MustName(fmt.Sprintf("/big/doc%d", i))
			start := time.Now()
			_, err := region.Commit(ctx, "shape", privileged, []backend.WriteOp{{
				Kind: backend.OpSet, Name: name,
				Fields: map[string]doc.Value{"field": payload},
			}})
			if err == nil {
				h.Record(time.Since(start))
			}
			time.Sleep(opts.scaledD(100*time.Millisecond, time.Millisecond)) // ~10 QPS
		}
		t.AddRow(fmt.Sprintf("%dKB", size>>10), h.Percentile(0.5), h.Percentile(0.99))
	}
	t.Notes = append(t.Notes, "expected shape: latency grows with document size (quorum must ship the bytes)")
	return t
}

// Fig10b measures commit latency vs field count: 1 to 500 numeric fields
// per document, each adding ascending+descending index entries (§V-B2's
// second experiment; the automatic index-everything default at work).
func Fig10b(opts Options) *Table {
	region := dataShapeRegion(opts)
	defer region.Close()
	ctx := context.Background()
	commits := opts.scaledN(40, 10)

	counts := []int{1, 10, 50, 100, 250, 500}
	t := &Table{
		ID:      "FIG10b",
		Title:   "commit latency vs number of indexed fields",
		Columns: []string{"fields", "index entries", "p50", "p99"},
	}
	for _, n := range counts {
		opts.logf("fig10b: %d fields", n)
		fields := make(map[string]doc.Value, n)
		for i := 0; i < n; i++ {
			fields[fmt.Sprintf("f%03d", i)] = doc.Int(int64(i))
		}
		var h obs.Histogram
		for i := 0; i < commits; i++ {
			name := doc.MustName(fmt.Sprintf("/wide/doc%d", i))
			start := time.Now()
			_, err := region.Commit(ctx, "shape", privileged, []backend.WriteOp{{
				Kind: backend.OpSet, Name: name, Fields: fields,
			}})
			if err == nil {
				h.Record(time.Since(start))
			}
			time.Sleep(opts.scaledD(100*time.Millisecond, time.Millisecond))
		}
		t.AddRow(n, 2*n, h.Percentile(0.5), h.Percentile(0.99))
	}
	t.Notes = append(t.Notes, "expected shape: latency grows linearly with field count (2 index entries per field)")
	return t
}

// Fig11 reproduces the isolation experiment (§V-C, Fig. 11): a fixed
// capacity environment, a "culprit" database ramping CPU-heavy queries to
// 500 QPS, a "bystander" database sending steady single-document fetches,
// with fair CPU scheduling enabled or disabled.
func Fig11(opts Options) *Table {
	duration := opts.scaledD(20*time.Second, 2*time.Second)
	windows := 8
	window := duration / time.Duration(windows)

	run := func(mode wfq.Mode) []obs.Summary {
		// Capacity: one worker serves ~250 culprit queries/sec, so the
		// linear ramp to 500 QPS crosses the limit halfway through, as
		// in the paper's fixed-capacity environment.
		const culpritCost = 4 * time.Millisecond // inefficient-indexing query
		const bystanderCost = 400 * time.Microsecond
		region := core.NewRegion(core.Config{
			TimeScale:        0.05,
			SchedulerWorkers: 1, // fixed capacity, no automatic scaling
			SchedulerMode:    mode,
			Seed:             opts.Seed,
			Costs: backend.Costs{
				Read: func(db string) time.Duration {
					if db == "culprit" {
						return culpritCost
					}
					return bystanderCost
				},
				Query: func(db string, _ *query.Query) time.Duration {
					if db == "culprit" {
						return culpritCost
					}
					return bystanderCost
				},
			},
		})
		defer region.Close()
		region.CreateDatabase("culprit")
		region.CreateDatabase("bystander")
		ctx := context.Background()
		region.Commit(ctx, "bystander", privileged, []backend.WriteOp{{
			Kind: backend.OpSet, Name: doc.MustName("/d/one"), Fields: map[string]doc.Value{"v": doc.Int(1)},
		}})
		region.Commit(ctx, "culprit", privileged, []backend.WriteOp{{
			Kind: backend.OpSet, Name: doc.MustName("/d/one"), Fields: map[string]doc.Value{"v": doc.Int(1)},
		}})

		series := newTimeSeries(window)
		stop := make(chan struct{})
		var wg sync.WaitGroup

		// Bystander: steady 100 QPS of single-document fetches.
		wg.Add(1)
		go func() {
			defer wg.Done()
			ticker := time.NewTicker(10 * time.Millisecond)
			defer ticker.Stop()
			name := doc.MustName("/d/one")
			for {
				select {
				case <-stop:
					return
				case <-ticker.C:
					go func() {
						start := time.Now()
						if _, _, err := region.GetDocument(ctx, "bystander", privileged, name, 0); err == nil {
							series.record(time.Since(start))
						}
					}()
				}
			}
		}()

		// Culprit: queries ramping linearly from 0 to 500 QPS, hitting
		// the capacity limit halfway through.
		wg.Add(1)
		go func() {
			defer wg.Done()
			begin := time.Now()
			name := doc.MustName("/d/one")
			for {
				select {
				case <-stop:
					return
				default:
				}
				frac := float64(time.Since(begin)) / float64(duration)
				qps := 500 * frac
				if qps < 1 {
					qps = 1
				}
				go region.GetDocument(ctx, "culprit", privileged, name, 0)
				time.Sleep(time.Duration(float64(time.Second) / qps))
			}
		}()

		time.Sleep(duration)
		close(stop)
		wg.Wait()
		sums := series.summaries()
		if len(sums) > windows {
			sums = sums[:windows]
		}
		return sums
	}

	opts.logf("fig11: fair scheduling run")
	fair := run(wfq.Fair)
	opts.logf("fig11: FIFO run")
	fifo := run(wfq.FIFO)

	t := &Table{
		ID:      "FIG11",
		Title:   "bystander latency while a culprit ramps to 500 QPS (fair vs FIFO)",
		Columns: []string{"window", "fair p50", "fair p99", "fifo p50", "fifo p99"},
	}
	for i := 0; i < windows; i++ {
		var f, n obs.Summary
		if i < len(fair) {
			f = fair[i]
		}
		if i < len(fifo) {
			n = fifo[i]
		}
		t.AddRow(i, f.P50, f.P99, n.P50, n.P99)
	}
	t.Notes = append(t.Notes,
		"expected shape: with FIFO the bystander's latency explodes once capacity saturates (halfway); fair scheduling keeps p50 flat with only a modest p99 rise")
	return t
}

// timeSeries buckets latency observations by elapsed wall-time window,
// one histogram per window, for Fig. 11's latency-over-time plot.
type timeSeries struct {
	mu     sync.Mutex
	start  time.Time
	window time.Duration
	slots  []*obs.Histogram
}

func newTimeSeries(window time.Duration) *timeSeries {
	return &timeSeries{start: time.Now(), window: window}
}

// record adds an observation to the current window.
func (ts *timeSeries) record(d time.Duration) {
	ts.mu.Lock()
	i := int(time.Since(ts.start) / ts.window)
	for len(ts.slots) <= i {
		ts.slots = append(ts.slots, &obs.Histogram{})
	}
	h := ts.slots[i]
	ts.mu.Unlock()
	h.Record(d)
}

// summaries returns one Summary per elapsed window.
func (ts *timeSeries) summaries() []obs.Summary {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]obs.Summary, len(ts.slots))
	for i, h := range ts.slots {
		out[i] = h.Snapshot()
	}
	return out
}
