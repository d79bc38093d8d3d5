package bench

import (
	"context"
	"time"

	"firestore/internal/autoscale"
	"firestore/internal/backend"
	"firestore/internal/core"
	"firestore/internal/doc"
	"firestore/internal/frontend"
	"firestore/internal/obs"
	"firestore/internal/query"
	"firestore/internal/ycsb"
)

// ycsbClient adapts a Region to the YCSB Client interface: one document
// per record with a single 900-byte field, as in §V-B1.
type ycsbClient struct {
	region *core.Region
	dbID   string
}

var privileged = backend.Principal{Privileged: true}

func (c *ycsbClient) name(key string) doc.Name {
	n, _ := doc.MustCollection("/ycsb").Doc(key)
	return n
}

func (c *ycsbClient) Read(ctx context.Context, key string) error {
	_, _, err := c.region.GetDocument(ctx, c.dbID, privileged, c.name(key), 0)
	return err
}

func (c *ycsbClient) Update(ctx context.Context, key string, value []byte) error {
	_, err := c.region.Commit(ctx, c.dbID, privileged, []backend.WriteOp{{
		Kind: backend.OpSet, Name: c.name(key),
		Fields: map[string]doc.Value{"field0": doc.Bytes(value)},
	}})
	return err
}

func (c *ycsbClient) Insert(ctx context.Context, key string, value []byte) error {
	return c.Update(ctx, key, value)
}

// ycsbEnv builds the Fig. 7/8 environment: a regional deployment whose
// Backend capacity auto-scales with a reaction delay, so sustained load
// is absorbed but rapid ramp-ups queue first — the mechanism behind the
// paper's elevated p99 at high QPS ("capacity is not pre-allocated for
// individual databases, and scale-up instead relies on auto-scaling").
func ycsbEnv(opts Options, runDur time.Duration) (*core.Region, *ycsbClient) {
	pool := autoscale.New(autoscale.Config{
		MinTasks:          2,
		TaskThroughput:    500, // read-unit ops/sec per backend task
		TargetUtilization: 0.6,
		ReactionDelay:     runDur / 4,
		MaxStepFactor:     2,
	})
	const readCPU = 150 * time.Microsecond
	costs := backend.Costs{
		Read: func(string) time.Duration {
			pool.Observe(1)
			return readCPU + pool.QueuePenalty(readCPU)
		},
		Query: func(string, *query.Query) time.Duration {
			pool.Observe(1)
			return readCPU + pool.QueuePenalty(readCPU)
		},
		Write: func(_ string, n int) time.Duration {
			pool.Observe(3 * n) // writes cost ~3x a read
			return 3*readCPU + pool.QueuePenalty(3*readCPU)
		},
	}
	region := core.NewRegion(core.Config{
		Name:        "nam-bench",
		MultiRegion: true, // the paper benchmarks the nam5 multi-region
		TimeScale:   0.2,
		Costs:       costs,
		Seed:        opts.Seed,
	})
	region.CreateDatabase("ycsb")
	return region, &ycsbClient{region: region, dbID: "ycsb"}
}

// ycsbPoint is one (workload, targetQPS) measurement.
type ycsbPoint struct {
	workload string
	qps      int
	readP50  time.Duration
	readP99  time.Duration
	updP50   time.Duration
	updP99   time.Duration
}

// runYCSB sweeps target QPS for workloads A and B.
func runYCSB(opts Options) []ycsbPoint {
	records := opts.scaledN(3000, 200)
	runDur := opts.scaledD(8*time.Second, time.Second)
	targets := []int{250, 500, 1000, 2000}

	var points []ycsbPoint
	for _, w := range []ycsb.Workload{ycsb.WorkloadA, ycsb.WorkloadB} {
		for _, qps := range targets {
			region, client := ycsbEnv(opts, runDur)
			opts.logf("fig7/8: workload %s @ %d QPS (records=%d dur=%v)", w.Name, qps, records, runDur)
			if err := ycsb.Load(context.Background(), client, w, records, 16); err != nil {
				region.Close()
				opts.logf("fig7/8: load failed: %v", err)
				continue
			}
			res := ycsb.Run(context.Background(), client, w, qps, ycsb.RunOptions{
				Records:  records,
				Duration: runDur,
				Workers:  256,
				Seed:     opts.Seed,
			})
			points = append(points, ycsbPoint{
				workload: w.Name,
				qps:      qps,
				readP50:  res.Reads.Percentile(0.50),
				readP99:  res.Reads.Percentile(0.99),
				updP50:   res.Updates.Percentile(0.50),
				updP99:   res.Updates.Percentile(0.99),
			})
			region.Close()
		}
	}
	return points
}

// Fig7 reports YCSB read latency vs target QPS (workloads A and B,
// p50/p99).
func Fig7(opts Options) *Table {
	return ycsbTable(runYCSB(opts), "FIG7", "YCSB read latency vs target QPS", true)
}

// Fig8 reports YCSB update latency vs target QPS.
func Fig8(opts Options) *Table {
	return ycsbTable(runYCSB(opts), "FIG8", "YCSB update latency vs target QPS", false)
}

// Fig7And8 runs the sweep once and produces both tables.
func Fig7And8(opts Options) (*Table, *Table) {
	points := runYCSB(opts)
	return ycsbTable(points, "FIG7", "YCSB read latency vs target QPS", true),
		ycsbTable(points, "FIG8", "YCSB update latency vs target QPS", false)
}

func ycsbTable(points []ycsbPoint, id, title string, reads bool) *Table {
	t := &Table{
		ID:      id,
		Title:   title,
		Columns: []string{"workload", "target QPS", "p50", "p99"},
	}
	for _, p := range points {
		p50, p99 := p.readP50, p.readP99
		if !reads {
			p50, p99 = p.updP50, p.updP99
		}
		t.AddRow("YCSB-"+p.workload, p.qps, p50, p99)
	}
	t.Notes = append(t.Notes,
		"expected shape: p50 roughly flat across QPS; p99 grows at high QPS, more on write-heavy A (auto-scaling ramp)",
		"updates slower than reads (replication quorum); multi-region deployment as in the paper's nam5 runs")
	return t
}

// Fig9 measures real-time notification latency vs listener count (§V-B1,
// Fig. 9): one write per interval to a single document while N clients
// hold a real-time query containing it; latency runs from commit
// acknowledgement to the LAST client's notification.
func Fig9(opts Options) *Table {
	listenerCounts := []int{1, 10, 100, opts.scaledN(1000, 200)}
	writes := opts.scaledN(30, 8)

	t := &Table{
		ID:      "FIG9",
		Title:   "notification latency vs number of listen connections",
		Columns: []string{"listeners", "p50", "p99", "mean"},
	}
	for _, n := range listenerCounts {
		region := core.NewRegion(core.Config{TimeScale: 0.1, RTRanges: 8, Seed: opts.Seed})
		region.CreateDatabase("scores")
		ctx := context.Background()
		gameName := doc.MustName("/scores/game1")
		region.Commit(ctx, "scores", privileged, []backend.WriteOp{{
			Kind: backend.OpSet, Name: gameName,
			Fields: map[string]doc.Value{"home": doc.Int(0)},
		}})
		opts.logf("fig9: %d listeners", n)

		// Register n listeners, each on its own connection.
		received := make(chan time.Time, n*(writes+2))
		conns := make([]*frontend.Conn, 0, n)
		q := &query.Query{Collection: doc.MustCollection("/scores")}
		for i := 0; i < n; i++ {
			conn := region.NewConn("scores", privileged)
			conns = append(conns, conn)
			if _, err := conn.Listen(ctx, q); err != nil {
				opts.logf("fig9: listen failed: %v", err)
				continue
			}
			<-conn.Events() // initial snapshot
			go func() {
				for range conn.Events() {
					received <- time.Now()
				}
			}()
		}

		var hist obs.Histogram
		interval := opts.scaledD(time.Second, 50*time.Millisecond)
		for i := 0; i < writes; i++ {
			time.Sleep(interval / 4)
			_, err := region.Commit(ctx, "scores", privileged, []backend.WriteOp{{
				Kind: backend.OpSet, Name: gameName,
				Fields: map[string]doc.Value{"home": doc.Int(int64(i + 1))},
			}})
			ackTime := time.Now()
			if err != nil {
				continue
			}
			// Wait for every listener's notification.
			deadline := time.After(2 * time.Second)
			got := 0
			var last time.Time
		waitLoop:
			for got < n {
				select {
				case at := <-received:
					got++
					if at.After(last) {
						last = at
					}
				case <-deadline:
					break waitLoop
				}
			}
			if got == n {
				hist.Record(last.Sub(ackTime))
			}
		}
		for _, c := range conns {
			c.Close()
		}
		region.Close()
		sum := hist.Snapshot()
		t.AddRow(n, sum.P50, sum.P99, sum.Mean)
	}
	t.Notes = append(t.Notes,
		"expected shape: latency stays relatively stable under exponential growth in listeners (fan-out scales out)",
		"latency = commit ack at the Backend until the last client notification (as defined in §V-B1)")
	return t
}
