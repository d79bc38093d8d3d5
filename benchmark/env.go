package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"firestore/firestore"
	"firestore/internal/cluster"
	"firestore/internal/core"
	"firestore/internal/storage"
)

const dbID = "bench"

// clients is C: the closed-loop client count and the ceiling on every
// goroutine or connection the load generator runs at once.
func clients() int { return min(runtime.NumCPU(), 4) }

// engineKind selects what sits under the region's Spanner pool.
type engineKind int

const (
	engineMem  engineKind = iota // storage.Mem in process
	engineDisk                   // storage.Disk under a fresh directory
	engineWire                   // storage.Mem behind two tablet servers on TCP loopback
)

// diskMemtableCap keeps the memtable (1 MiB) far below the 18 MB YCSB
// data set, so reads go to segments and a window spans many flushes.
const diskMemtableCap = 1 << 20

// wirePeers is the tablet-server count behind the coordinator.
const wirePeers = 2

// env is one opened region with whatever backs its storage.
type env struct {
	region *core.Region
	client *firestore.Client
	kind   engineKind
	dir    string               // engineDisk: the StorageDir
	coord  *cluster.Coordinator // engineWire
	peers  []*cluster.TabletServer
}

// modelOff is the region config every workload runs under: no synthetic
// latency (TimeScale 0, zero Costs), a 1ns TrueTime epsilon so commit
// wait is a clock read rather than a timer sleep, the fair scheduler on
// the path with C workers at zero simulated cost, head sampling off,
// KeyViz as shipped, no billing, no faults.
func modelOff() core.Config {
	return core.Config{
		Name:             "bench",
		TimeScale:        0,
		ClockEpsilon:     time.Nanosecond,
		SchedulerWorkers: clients(),
		TraceSampleProb:  -1,
	}
}

// openEnv opens a region on the given engine and creates the database.
// scratch roots the disk engine's directory; reuse (engineDisk only)
// reopens an existing StorageDir instead of making a fresh one.
func openEnv(kind engineKind, scratch, reuse string) (*env, error) {
	e := &env{kind: kind}
	cfg := modelOff()
	switch kind {
	case engineDisk:
		e.dir = reuse
		if e.dir == "" {
			dir, err := os.MkdirTemp(scratch, "ycsb_a_disk-") //fslint:ignore iodiscipline the benchmark owns the scratch StorageDir it hands to the engine
			if err != nil {
				return nil, err
			}
			e.dir = dir
		}
		cfg.StorageDir = e.dir
		cfg.MemtableCap = diskMemtableCap
	case engineWire:
		coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{})
		if err != nil {
			return nil, err
		}
		e.coord = coord
		for i := 0; i < wirePeers; i++ {
			ts, err := cluster.NewTabletServer(cluster.TabletServerConfig{
				Name: fmt.Sprintf("ts%d", i),
				Join: coord.Addr(),
				Kind: cluster.KindMem,
			})
			if err != nil {
				e.close()
				return nil, fmt.Errorf("tablet server %d: %w", i, err)
			}
			e.peers = append(e.peers, ts)
		}
		if err := coord.WaitForPeers(wirePeers, 5*time.Second); err != nil {
			e.close()
			return nil, err
		}
		cfg.StorageFactory = func(i int) (storage.Factory, error) { return coord.Factory(i), nil }
	}
	region, err := core.OpenRegion(cfg)
	if err != nil {
		e.close()
		return nil, err
	}
	e.region = region
	// The catalog is in memory and placement is a hash of the ID, so a
	// reopened region re-creates the database to rebind recovered data.
	if _, err := region.CreateDatabase(dbID); err != nil {
		e.close()
		return nil, err
	}
	e.client = firestore.NewClient(region, dbID)
	return e, nil
}

// close stops the region and its peers; the disk directory stays until
// destroy so a reopen can recover from it.
func (e *env) close() {
	if e.region != nil {
		e.region.Close()
		e.region = nil
	}
	for _, ts := range e.peers {
		ts.Close()
	}
	e.peers = nil
	if e.coord != nil {
		e.coord.Close()
		e.coord = nil
	}
}

func (e *env) destroy() {
	e.close()
	if e.dir != "" {
		os.RemoveAll(e.dir) //fslint:ignore iodiscipline removes the scratch StorageDir the benchmark created
	}
}

// storedBytes sums the file sizes under the disk engine's directory.
func (e *env) storedBytes() int64 {
	if e.dir == "" {
		return 0
	}
	var total int64
	_ = filepath.WalkDir(e.dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, ierr := d.Info(); ierr == nil {
				total += info.Size()
			}
		}
		return nil // files vanish under a concurrent compaction; skip them
	})
	return total
}

// bulkLoad writes n documents through the SDK's BulkWriter with at most
// C batches in flight and returns how long the load took.
func bulkLoad(ctx context.Context, cl *firestore.Client, n int, each func(i int) (*firestore.DocumentRef, map[string]any)) (time.Duration, error) {
	start := time.Now()
	bw := cl.BulkWriterWithOptions(ctx, firestore.BulkWriterOptions{
		MaxInFlight:       clients(),
		DisableThrottling: true,
	})
	jobs := make([]*firestore.BulkWriterJob, 0, n)
	for i := 0; i < n; i++ {
		ref, data := each(i)
		j, err := bw.Set(ref, data)
		if err != nil {
			return 0, err
		}
		jobs = append(jobs, j)
	}
	if err := bw.End(); err != nil {
		return 0, err
	}
	for _, j := range jobs {
		if _, err := j.Results(); err != nil {
			return 0, fmt.Errorf("bulk load: %w", err)
		}
	}
	return time.Since(start), nil
}
