// Command firestore-server runs a multi-tenant Firestore region behind an
// HTTP/JSON API, including server-sent-event streaming of real-time query
// snapshots — a miniature of the service surface in Figure 4.
//
//	firestore-server -addr :8565
//
// API (paths are document/collection paths, auth via
// "Authorization: Bearer uid:<user>" or "X-Privileged: true"):
//
//	POST /v1/databases                     {"id": "mydb"}           create a database
//	POST /v1/databases/{db}/rules          <rules source>           deploy security rules
//	POST /v1/databases/{db}/indexes        {"collection","fields"}  add a composite index
//	PUT  /v1/databases/{db}/docs/{path}    {fields JSON}            set a document
//	GET  /v1/databases/{db}/docs/{path}                             read a document
//	DELETE /v1/databases/{db}/docs/{path}                           delete a document
//	POST /v1/databases/{db}/query          {query JSON}             run a query
//	GET  /v1/databases/{db}/listen?collection=/c[&where=f,op,v]     SSE snapshot stream
//
// Multi-process cluster (§III's compute/storage separation as real
// processes): run tablet servers first, then a coordinator that waits
// for them and serves the same HTTP API over remote storage:
//
//	firestore-server -role tablet -join 127.0.0.1:7400 -name ts1 -data-dir /tmp/fs/ts1
//	firestore-server -role tablet -join 127.0.0.1:7400 -name ts2 -data-dir /tmp/fs/ts2
//	firestore-server -role coordinator -cluster-listen 127.0.0.1:7400 -tablets 2 -addr :8565
//
// The coordinator's /debug/clusterz shows the peer table.
package main

import (
	"errors"
	"flag"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"firestore/cmd/firestore-server/server"
	"firestore/internal/cluster"
	"firestore/internal/core"
	"firestore/internal/storage"
	"firestore/internal/transport"
)

func main() {
	addr := flag.String("addr", ":8565", "listen address")
	role := flag.String("role", "all", "process role: all (single-process), coordinator, or tablet")
	join := flag.String("join", "", "coordinator control-plane address to join (tablet role)")
	name := flag.String("name", "", "stable peer name; a restart under the same name and data dir reclaims tablets (tablet role)")
	engineKind := flag.String("engine", cluster.KindDisk, "hosted engine kind: disk or mem (tablet role)")
	clusterListen := flag.String("cluster-listen", "127.0.0.1:0", "control-plane listen address (coordinator role)")
	tablets := flag.Int("tablets", 1, "tablet servers to wait for before serving (coordinator role)")
	multiRegion := flag.Bool("multi-region", false, "simulate a multi-region deployment")
	timeScale := flag.Float64("time-scale", 0.0, "synthetic latency scale (0 = none)")
	debug := flag.Bool("debug", true, "serve /debug/ status pages (metricz, tracez, ...)")
	pprofFlag := flag.Bool("pprof", false, "additionally serve /debug/pprof/ and /debug/vars")
	traceSample := flag.Float64("trace-sample", 0.05, "head-sampling probability for traces (0 = slow/error only, <0 = off)")
	slowThreshold := flag.Duration("slow-threshold", 100*time.Millisecond, "traces slower than this are always kept and slow-logged")
	slowLogPath := flag.String("slow-log", "", "append slow-query log lines to this file (\"-\" = stderr)")
	dataDir := flag.String("data-dir", "", "back the Spanner pool with durable storage (WAL + segments) rooted here; empty = in-memory")
	memtableCap := flag.Int64("memtable-cap", 0, "durable memtable flush threshold in bytes (0 = default; needs -data-dir)")
	flag.Parse()

	if *role == "tablet" {
		runTablet(*join, *name, *dataDir, *engineKind, *memtableCap)
		return
	}
	if *role != "all" && *role != "coordinator" {
		log.Fatalf("firestore-server: unknown -role %q (want all, coordinator, or tablet)", *role)
	}

	var slowLog io.Writer
	switch *slowLogPath {
	case "":
	case "-":
		slowLog = os.Stderr
	default:
		f, err := os.OpenFile(*slowLogPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("firestore-server: open slow log: %v", err)
		}
		defer f.Close()
		slowLog = f
	}

	cfg := core.Config{
		Name:               "http",
		MultiRegion:        *multiRegion,
		TimeScale:          *timeScale,
		Billing:            true,
		TraceSampleProb:    *traceSample,
		SlowTraceThreshold: *slowThreshold,
		SlowLog:            slowLog,
		StorageDir:         *dataDir,
		MemtableCap:        *memtableCap,
	}

	var coord *cluster.Coordinator
	if *role == "coordinator" {
		var err error
		coord, err = cluster.NewCoordinator(cluster.CoordinatorConfig{Listen: *clusterListen})
		if err != nil {
			log.Fatalf("firestore-server: start coordinator: %v", err)
		}
		defer coord.Close()
		log.Printf("cluster control plane on %s; waiting for %d tablet server(s)", coord.Addr(), *tablets)
		if err := coord.WaitForPeers(*tablets, 5*time.Minute); err != nil {
			log.Fatalf("firestore-server: %v", err)
		}
		// Every pool database's storage now lives on the joined tablet
		// servers; the region recovers whatever their WALs hold.
		cfg.StorageDir = ""
		cfg.StorageFactory = func(i int) (storage.Factory, error) { return coord.Factory(i), nil }
	}

	region, err := core.OpenRegion(cfg)
	if err != nil {
		log.Fatalf("firestore-server: open region: %v", err)
	}
	defer region.Close()
	if coord != nil {
		coord.Pool().SetObs(region.Obs)
		log.Printf("serving over %d remote tablet server(s)", *tablets)
	} else if *dataDir != "" {
		log.Printf("durable storage at %s (recovered state is live)", *dataDir)
	}

	handler := server.New(region)
	if coord != nil {
		handler.SetClusterInfo(coord.Snapshot)
	}
	if *debug {
		handler.EnableDebug(server.DebugOptions{Pprof: *pprofFlag})
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	log.Printf("firestore-server listening on %s", *addr)
	log.Fatal(srv.ListenAndServe())
}

// runTablet runs the tablet-server role: host storage engines, join the
// coordinator, serve engine RPCs until interrupted (or orphaned — the
// coordinator stayed unreachable long enough that a leftover child
// should exit).
func runTablet(join, name, dataDir, kind string, memtableCap int64) {
	if join == "" || name == "" {
		log.Fatal("firestore-server: -role tablet requires -join and -name")
	}
	if kind == cluster.KindDisk && dataDir == "" {
		log.Fatal("firestore-server: -role tablet with disk engines requires -data-dir")
	}
	// Operators start tablets and the coordinator in any order, so a
	// refused join dial retries for a bounded window instead of exiting
	// (the coordinator's control plane may be a moment behind us).
	var ts *cluster.TabletServer
	var err error
	for deadline := time.Now().Add(15 * time.Second); ; {
		ts, err = cluster.NewTabletServer(cluster.TabletServerConfig{
			Name:        name,
			Join:        join,
			DataDir:     dataDir,
			Kind:        kind,
			MemtableCap: memtableCap,
		})
		if err == nil {
			break
		}
		if !errors.Is(err, transport.ErrPeerUnreachable) || time.Now().After(deadline) {
			log.Fatalf("firestore-server: start tablet server: %v", err)
		}
		log.Printf("tablet server %q: coordinator %s not up yet (%v), retrying", name, join, err)
		time.Sleep(500 * time.Millisecond)
	}
	defer ts.Close()
	log.Printf("tablet server %q (%s engines) serving on %s, joined %s", name, kind, ts.Addr(), join)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("tablet server %q: %v, shutting down", name, s)
	case <-ts.Orphaned():
		log.Printf("tablet server %q: coordinator unreachable, exiting", name)
	}
}
