package bench

import (
	"context"
	"fmt"
	"time"

	"firestore/firestore"
	"firestore/internal/backend"
	"firestore/internal/core"
	"firestore/internal/doc"
	"firestore/internal/query"
	"firestore/internal/ramp"
	"firestore/internal/truetime"
	"firestore/internal/ycsb"
)

// DurableBulkResult is the machine-readable outcome of one durable
// bulk-load run, for the parity gate in CI.
type DurableBulkResult struct {
	Mem     ycsb.LoadResult
	Durable ycsb.LoadResult
	// Flushes/Compactions/WALBytes sum storage activity over the durable
	// region's pool after the load.
	Flushes     int64
	Compactions int64
	WALBytes    int64
	// Recovered is the document count a fresh region recovered from the
	// same directory after the loading region shut down.
	Recovered int
}

// Parity returns durable docs/s over in-memory docs/s.
func (r DurableBulkResult) Parity() float64 {
	if r.Mem.DocsPerSec() <= 0 {
		return 0
	}
	return r.Durable.DocsPerSec() / r.Mem.DocsPerSec()
}

// durableEnv is bulkEnv on the disk engine rooted at dir. The memtable
// cap scales with the record count n so the load runs through a handful
// of segment flushes at every -scale: small enough to provably exercise
// WAL rotation and flush, large enough that full compaction (an O(live
// data) merge each time) doesn't turn the load quadratic.
func durableEnv(opts Options, dir string, n int) (*core.Region, *firestore.Client, error) {
	const writeCPU = 100 * time.Microsecond
	region, err := core.OpenRegion(core.Config{
		Name:             "nam-bulk-durable",
		MultiRegion:      true,
		TimeScale:        0.2,
		SchedulerWorkers: 8,
		Costs: backend.Costs{
			Write: func(_ string, n int) time.Duration { return time.Duration(n) * writeCPU },
		},
		Seed:        opts.Seed,
		StorageDir:  dir,
		MemtableCap: int64(n) * 150,
		CompactAt:   8,
	})
	if err != nil {
		return nil, nil, err
	}
	if _, err := region.CreateDatabase("ycsb"); err != nil {
		region.Close()
		return nil, nil, err
	}
	return region, firestore.NewClient(region, "ycsb"), nil
}

// runBulkLoadDurable loads n YCSB records through the BulkWriter twice —
// once on the default in-memory engine and once on the disk engine rooted
// at dir — then restarts the durable region from dir and recounts. The
// caller owns dir (the bench layer does no file I/O; all of it lives in
// internal/storage).
func runBulkLoadDurable(opts Options, dir string) (DurableBulkResult, error) {
	var res DurableBulkResult
	n := opts.scaledN(1500, 150)
	ctx := context.Background()
	w := ycsb.WorkloadA

	region, client := bulkEnv(opts)
	opts.logf("bulkload-durable: in-memory BulkWriter x%d", n)
	bw := client.BulkWriterWithOptions(ctx, firestore.BulkWriterOptions{
		RampRule: ramp.Rule{BaseQPS: 1e6},
	})
	res.Mem = ycsb.LoadBulk(ctx, &bulkLoader{col: client.Collection("ycsb"), bw: bw}, w, n)
	bw.End()
	region.Close()

	region, client, err := durableEnv(opts, dir, n)
	if err != nil {
		return res, err
	}
	opts.logf("bulkload-durable: durable BulkWriter x%d", n)
	bw = client.BulkWriterWithOptions(ctx, firestore.BulkWriterOptions{
		RampRule: ramp.Rule{BaseQPS: 1e6},
	})
	res.Durable = ycsb.LoadBulk(ctx, &bulkLoader{col: client.Collection("ycsb"), bw: bw}, w, n)
	bw.End()
	for _, db := range region.Spanners {
		for _, ti := range db.TabletStats() {
			res.Flushes += ti.Storage.Flushes
			res.Compactions += ti.Storage.Compactions
			res.WALBytes += ti.Storage.WALBytes
		}
	}
	region.Close()

	// Restart gate: a fresh region on the same directory must recover
	// every loaded document.
	region, _, err = durableEnv(opts, dir, n)
	if err != nil {
		return res, fmt.Errorf("reopen durable region: %w", err)
	}
	defer region.Close()
	// One execution returns at most query.MaxResultSize docs; follow the
	// resume cursor (at a pinned read timestamp) until exhaustion.
	var (
		resume []byte
		readTS truetime.Timestamp
	)
	for {
		qres, ts, err := region.RunQuery(ctx, "ycsb", backend.Principal{Privileged: true},
			&query.Query{Collection: doc.MustCollection("/ycsb")}, resume, readTS)
		if err != nil {
			return res, fmt.Errorf("recount after restart: %w", err)
		}
		readTS = ts
		res.Recovered += len(qres.Docs)
		if qres.Resume == nil {
			break
		}
		resume = qres.Resume
	}
	return res, nil
}

// BulkLoadDurable compares the BulkWriter load phase on the in-memory
// engine against the disk engine (WAL + group fsync + segment flush) at
// equal op count, and verifies the durable load survives a region
// restart. dir roots the on-disk state and must be a scratch directory
// owned by the caller.
func BulkLoadDurable(opts Options, dir string) (*Table, error) {
	res, err := runBulkLoadDurable(opts, dir)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "BULK-DURABLE",
		Title:   "YCSB load phase: BulkWriter on in-memory vs durable storage",
		Columns: []string{"engine", "docs", "errors", "elapsed", "docs/s"},
	}
	t.AddRow("in-memory", res.Mem.Docs, res.Mem.Errors, res.Mem.Elapsed, res.Mem.DocsPerSec())
	t.AddRow("durable", res.Durable.Docs, res.Durable.Errors, res.Durable.Elapsed, res.Durable.DocsPerSec())
	t.Notes = append(t.Notes,
		fmt.Sprintf("parity: durable runs at %.2fx of in-memory (reported, not gated)", res.Parity()),
		fmt.Sprintf("durable path activity: %d segment flushes, %d compactions, %d WAL bytes", res.Flushes, res.Compactions, res.WALBytes),
		fmt.Sprintf("restart gate: fresh region recovered %d/%d documents from disk", res.Recovered, res.Durable.Docs),
	)
	return t, nil
}
