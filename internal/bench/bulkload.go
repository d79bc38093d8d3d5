package bench

import (
	"context"
	"fmt"
	"time"

	"firestore/firestore"
	"firestore/internal/backend"
	"firestore/internal/core"
	"firestore/internal/ramp"
	"firestore/internal/ycsb"
)

// sdkClient adapts the public SDK to ycsb.Client: every Insert is one
// blocking DocumentRef.Set round trip — the baseline an application gets
// from a plain write loop.
type sdkClient struct {
	col *firestore.CollectionRef
}

func (c *sdkClient) Read(ctx context.Context, key string) error {
	_, err := c.col.Doc(key).Get(ctx)
	return err
}

func (c *sdkClient) Update(ctx context.Context, key string, value []byte) error {
	return c.col.Doc(key).Set(ctx, map[string]any{"field0": value})
}

func (c *sdkClient) Insert(ctx context.Context, key string, value []byte) error {
	return c.Update(ctx, key, value)
}

// bulkLoader adapts firestore.BulkWriter to ycsb.BulkLoader: Insert
// enqueues without blocking on the network, and the job's Results call
// becomes the per-record wait.
type bulkLoader struct {
	col *firestore.CollectionRef
	bw  *firestore.BulkWriter
}

func (l *bulkLoader) Insert(ctx context.Context, key string, value []byte) (func() error, error) {
	j, err := l.bw.Set(l.col.Doc(key), map[string]any{"field0": value})
	if err != nil {
		return nil, err
	}
	return func() error { _, rerr := j.Results(); return rerr }, nil
}

func (l *bulkLoader) Flush() { l.bw.Flush() }

// bulkEnv builds the bulk-load environment: a multi-region deployment
// (commit pays the replication quorum) with the fair scheduler on, so
// bulk batches run under the low-weight batch-tagged key and their CPU
// shows up in the scheduler's dispatched-cost accounting.
func bulkEnv(opts Options) (*core.Region, *firestore.Client) {
	const writeCPU = 100 * time.Microsecond
	region := core.NewRegion(core.Config{
		Name:             "nam-bulk",
		MultiRegion:      true,
		TimeScale:        0.2,
		SchedulerWorkers: 8,
		Costs: backend.Costs{
			Write: func(_ string, n int) time.Duration { return time.Duration(n) * writeCPU },
		},
		Seed: opts.Seed,
	})
	region.CreateDatabase("ycsb")
	return region, firestore.NewClient(region, "ycsb")
}

// BulkLoad compares the YCSB load phase through a sequential
// DocumentRef.Set loop against the BulkWriter pipeline at equal op
// count, each into a fresh database, reporting achieved docs/s,
// per-record errors, and the speedup. The BulkWriter's admission ramp is
// raised far above the ingest rate (the published 500 QPS base would be
// the binding limit at this scale and hide the pipeline's throughput);
// batching, grouping, and in-flight limits stay at their defaults.
func BulkLoad(opts Options) *Table {
	n := opts.scaledN(1500, 150)
	ctx := context.Background()
	w := ycsb.WorkloadA

	region, client := bulkEnv(opts)
	opts.logf("bulkload: sequential Set x%d", n)
	seq := ycsb.LoadTimed(ctx, &sdkClient{col: client.Collection("ycsb")}, w, n, 1)
	region.Close()

	region, client = bulkEnv(opts)
	opts.logf("bulkload: BulkWriter x%d", n)
	bw := client.BulkWriterWithOptions(ctx, firestore.BulkWriterOptions{
		RampRule: ramp.Rule{BaseQPS: 1e6},
	})
	bulk := ycsb.LoadBulk(ctx, &bulkLoader{col: client.Collection("ycsb"), bw: bw}, w, n)
	bw.End()
	batchCPU := region.Scheduler.AccountedCost("ycsb\x00batch")
	region.Close()

	t := &Table{
		ID:      "BULK",
		Title:   "YCSB load phase: sequential Set vs BulkWriter",
		Columns: []string{"loader", "docs", "errors", "elapsed", "docs/s"},
	}
	t.AddRow("sequential Set", seq.Docs, seq.Errors, seq.Elapsed, seq.DocsPerSec())
	t.AddRow("BulkWriter", bulk.Docs, bulk.Errors, bulk.Elapsed, bulk.DocsPerSec())
	speedup := 0.0
	if seq.DocsPerSec() > 0 {
		speedup = bulk.DocsPerSec() / seq.DocsPerSec()
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("speedup: %.1fx (acceptance floor: 3x)", speedup),
		"BulkWriter: batches of 20 ops grouped by target tablet, 10 batch commits in flight, per-op results awaited individually",
		"admission ramp raised above the ingest rate for this harness; applications get the 500/50/5 conforming-traffic default",
		fmt.Sprintf("fair-scheduler CPU charged to the batch-tagged key: %v (weight 0.2 vs interactive traffic)", batchCPU),
	)
	return t
}
