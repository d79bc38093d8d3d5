package bench

import (
	"context"
	"fmt"
	"time"

	"firestore/firestore"
	"firestore/internal/backend"
	"firestore/internal/cluster"
	"firestore/internal/core"
	"firestore/internal/ramp"
	"firestore/internal/storage"
	"firestore/internal/ycsb"
)

// ClusterBulkResult is the machine-readable outcome of one cluster
// bulk-load run, for the wire-overhead parity gate in CI.
type ClusterBulkResult struct {
	InProc  ycsb.LoadResult
	Cluster ycsb.LoadResult
	// Peers is the tablet-server count behind the coordinator.
	Peers int
	// RPCs/RPCErrs/Reconnects sum the coordinator's per-peer pool health
	// after the load: RPCs > 0 is the proof the load actually crossed the
	// wire rather than short-circuiting in process.
	RPCs       int64
	RPCErrs    int64
	Reconnects int64
}

// Parity returns cluster docs/s over in-process docs/s.
func (r ClusterBulkResult) Parity() float64 {
	if r.InProc.DocsPerSec() <= 0 {
		return 0
	}
	return r.Cluster.DocsPerSec() / r.InProc.DocsPerSec()
}

// clusterEnv is bulkEnv with the Spanner pool's storage remoted: a
// coordinator plus `peers` in-process tablet servers on TCP loopback,
// wired into the region through Config.StorageFactory. The tablet
// servers run in this process but every engine call still crosses a
// real socket through internal/transport (length-prefixed frames, JSON
// bodies), so the measured overhead is the wire protocol itself.
func clusterEnv(opts Options, peers int) (*core.Region, *firestore.Client, *cluster.Coordinator, func(), error) {
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	var servers []*cluster.TabletServer
	shutdown := func() {
		for _, ts := range servers {
			ts.Close()
		}
		coord.Close()
	}
	for i := 0; i < peers; i++ {
		ts, err := cluster.NewTabletServer(cluster.TabletServerConfig{
			Name: fmt.Sprintf("ts%d", i),
			Join: coord.Addr(),
			Kind: cluster.KindMem,
		})
		if err != nil {
			shutdown()
			return nil, nil, nil, nil, fmt.Errorf("tablet server %d: %w", i, err)
		}
		servers = append(servers, ts)
	}
	if err := coord.WaitForPeers(peers, 5*time.Second); err != nil {
		shutdown()
		return nil, nil, nil, nil, err
	}
	const writeCPU = 100 * time.Microsecond
	region, err := core.OpenRegion(core.Config{
		Name:             "nam-bulk-cluster",
		MultiRegion:      true,
		TimeScale:        0.2,
		SchedulerWorkers: 8,
		Costs: backend.Costs{
			Write: func(_ string, n int) time.Duration { return time.Duration(n) * writeCPU },
		},
		Seed: opts.Seed,
		StorageFactory: func(i int) (storage.Factory, error) {
			return coord.Factory(i), nil
		},
	})
	if err != nil {
		shutdown()
		return nil, nil, nil, nil, err
	}
	if _, err := region.CreateDatabase("ycsb"); err != nil {
		region.Close()
		shutdown()
		return nil, nil, nil, nil, err
	}
	cleanup := func() {
		region.Close()
		shutdown()
	}
	return region, firestore.NewClient(region, "ycsb"), coord, cleanup, nil
}

// runBulkLoadCluster loads n YCSB records through the BulkWriter twice —
// once with the default in-process engines and once with the Spanner
// pool's storage served by tablet-server peers over TCP loopback — at
// equal op count. Same code path either side of the StorageFactory seam;
// the delta is frames, sockets, and per-peer health accounting.
func runBulkLoadCluster(opts Options) (ClusterBulkResult, error) {
	const peers = 2
	res := ClusterBulkResult{Peers: peers}
	n := opts.scaledN(1500, 150)
	ctx := context.Background()
	w := ycsb.WorkloadA

	region, client := bulkEnv(opts)
	opts.logf("bulkload-cluster: in-process BulkWriter x%d", n)
	bw := client.BulkWriterWithOptions(ctx, firestore.BulkWriterOptions{
		RampRule: ramp.Rule{BaseQPS: 1e6},
	})
	res.InProc = ycsb.LoadBulk(ctx, &bulkLoader{col: client.Collection("ycsb"), bw: bw}, w, n)
	bw.End()
	region.Close()

	region, client, coord, cleanup, err := clusterEnv(opts, peers)
	if err != nil {
		return res, err
	}
	defer cleanup()
	opts.logf("bulkload-cluster: TCP-loopback BulkWriter x%d across %d tablet servers", n, peers)
	bw = client.BulkWriterWithOptions(ctx, firestore.BulkWriterOptions{
		RampRule: ramp.Rule{BaseQPS: 1e6},
	})
	res.Cluster = ycsb.LoadBulk(ctx, &bulkLoader{col: client.Collection("ycsb"), bw: bw}, w, n)
	bw.End()
	for _, ph := range coord.Pool().Health() {
		res.RPCs += ph.Calls
		res.RPCErrs += ph.Errors
		res.Reconnects += ph.Reconnects
	}
	return res, nil
}

// BulkLoadCluster compares the BulkWriter load phase on in-process
// engines against tablet-server peers reached over TCP loopback at equal
// op count: the wire-protocol overhead gate for the multi-process
// cluster.
func BulkLoadCluster(opts Options) (*Table, error) {
	res, err := runBulkLoadCluster(opts)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "BULK-CLUSTER",
		Title:   "YCSB load phase: BulkWriter in-process vs tablet servers over TCP loopback",
		Columns: []string{"engines", "docs", "errors", "elapsed", "docs/s"},
	}
	t.AddRow("in-process", res.InProc.Docs, res.InProc.Errors, res.InProc.Elapsed, res.InProc.DocsPerSec())
	t.AddRow("tcp-loopback", res.Cluster.Docs, res.Cluster.Errors, res.Cluster.Elapsed, res.Cluster.DocsPerSec())
	t.Notes = append(t.Notes,
		fmt.Sprintf("parity: cluster runs at %.2fx of in-process (reported, not gated)", res.Parity()),
		fmt.Sprintf("wire activity: %d engine RPCs across %d tablet-server peers, %d errors, %d reconnects",
			res.RPCs, res.Peers, res.RPCErrs, res.Reconnects),
		"tablet servers share this process but every engine call crosses a real TCP socket (frames, JSON, per-peer health)",
	)
	return t, nil
}
