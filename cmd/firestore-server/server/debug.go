package server

import (
	"expvar"
	"net/http"
	"net/http/pprof"
	"strconv"

	"firestore/internal/backend"
	"firestore/internal/cluster"
	"firestore/internal/fault"
	"firestore/internal/frontend"
	"firestore/internal/keyviz"
	"firestore/internal/reqctx"
	"firestore/internal/rtcache"
	"firestore/internal/spanner"
	"firestore/internal/status"
	"firestore/internal/wfq"
)

// The /debug pages' JSON shapes, declared once: the handlers below
// encode these and fsctl decodes into the same types, so a page and its
// reader cannot drift (TestDebugPagesRoundTrip). Every leaf is the
// origin package's own type. /debug/metricz?format=json is an
// obs.Snapshot and /debug/keyvizz a keyviz.Snapshot, as they come.
type (
	// TracezPage is /debug/tracez: tracer totals plus the requested
	// keep rings, newest first.
	TracezPage struct {
		Stats   reqctx.TracerStats `json:"stats"`
		Sampled []reqctx.TraceData `json:"sampled,omitempty"`
		Slow    []reqctx.TraceData `json:"slow,omitempty"`
		Error   []reqctx.TraceData `json:"error,omitempty"`
	}
	// RequestzPage is /debug/requestz.
	RequestzPage struct {
		Active []reqctx.ActiveRequest `json:"active"`
	}
	// SchedzPage is /debug/schedz; Stats is absent without a scheduler.
	SchedzPage struct {
		Enabled bool `json:"enabled"`
		*wfq.Stats
	}
	// TabletsPage is /debug/tabletz and /debug/storagez: the tablets of
	// each Spanner database, with engine counters (tabletz) or
	// region-wide storage totals (storagez).
	TabletsPage struct {
		Totals   *StorageTotals `json:"totals,omitempty"`
		Spanners []DBTablets    `json:"spanners"`
	}
	DBTablets struct {
		Index   int                  `json:"index"`
		Stats   *spanner.Stats       `json:"stats,omitempty"`
		Tablets []spanner.TabletInfo `json:"tablets"`
	}
	StorageTotals struct {
		Tablets     int   `json:"tablets"`
		Keys        int64 `json:"keys"`
		WALBytes    int64 `json:"wal_bytes"`
		MemBytes    int64 `json:"memtable_bytes"`
		Segments    int64 `json:"segments"`
		SegBytes    int64 `json:"segment_bytes"`
		Flushes     int64 `json:"flushes"`
		Compactions int64 `json:"compactions"`
		Recoveries  int64 `json:"recoveries"`
	}
	// ListenzPage is /debug/listenz.
	ListenzPage struct {
		Connections []frontend.ConnInfo `json:"connections"`
		Cache       rtcache.Stats       `json:"cache"`
		Ranges      []rtcache.RangeInfo `json:"ranges"`
	}
	// FaultzPage is /debug/faultz (GET, and the answer to every POST).
	FaultzPage struct {
		Sites []fault.SiteStatus `json:"sites"`
	}
	// AdvisorzPage is /debug/advisorz.
	AdvisorzPage struct {
		Shapes []backend.AdvisorEntry `json:"shapes"`
	}
	// ClusterzPage is /debug/clusterz; Cluster is absent in a
	// single-process region.
	ClusterzPage struct {
		Enabled bool                   `json:"enabled"`
		Cluster *cluster.ClusterStatus `json:"cluster,omitempty"`
	}
	// ExplainPage answers a query posted with explain or analyze set.
	ExplainPage struct {
		Plan     backend.PlanExplain `json:"plan"`
		ReadTime int64               `json:"readTime"`
	}
)

// DebugOptions gates the /debug/ status suite.
type DebugOptions struct {
	// Pprof additionally mounts net/http/pprof profiles and expvar under
	// /debug/pprof/ and /debug/vars. Off by default: profiles expose
	// process internals and profiling CPU costs money on a serving task.
	Pprof bool
}

// EnableDebug mounts the operator status pages, one route each. A page
// has no operation: it gets no root span and no deadline, so scrapes do
// not pollute the RPC metrics they report.
func (s *Server) EnableDebug(opts DebugOptions) {
	s.mount([]route{
		{"/debug/metricz", "", s.metricz},       // metrics registry (Prometheus text; ?format=json)
		{"/debug/tracez", "", s.tracez},         // recent sampled/slow/error traces (?kind=, ?n=)
		{"/debug/requestz", "", s.requestz},     // in-flight requests, oldest first
		{"/debug/schedz", "", s.schedz},         // fair-scheduler per-database state
		{"/debug/tabletz", "", s.tabletz},       // Spanner tablet boundaries, load, and safe-time state
		{"/debug/storagez", "", s.storagez},     // per-tablet storage engines (WAL, memtable, segments)
		{"/debug/listenz", "", s.listenz},       // real-time connections and cache ranges
		{"GET /debug/faultz", "", s.faultz},     // fault-injection sites
		{"POST /debug/faultz", "", s.setFaults}, // enable, disable or reset them
		{"/debug/advisorz", "", s.advisorz},     // index advisor: per-query-shape planner outcomes (?db=)
		{"/debug/keyvizz", "", s.keyvizz},       // keyspace heatmap and event timeline (?format=svg)
		{"/debug/clusterz", "", s.clusterz},     // multi-process cluster peer table
	})
	if opts.Pprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		s.mux.Handle("/debug/vars", expvar.Handler())
	}
}

func (s *Server) metricz(w http.ResponseWriter, r *http.Request) (any, error) {
	reg := s.region.Obs
	if r.URL.Query().Get("format") == "json" {
		return reg.Snapshot(), nil
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	reg.WritePrometheus(w)
	return nil, nil
}

// debugN parses the ?n= result bound (default 16).
func debugN(r *http.Request) int {
	if v, err := strconv.Atoi(r.URL.Query().Get("n")); err == nil && v > 0 {
		return v
	}
	return 16
}

func (s *Server) tracez(w http.ResponseWriter, r *http.Request) (any, error) {
	t := s.region.Tracer
	n := debugN(r)
	kind := r.URL.Query().Get("kind")
	recent := func(k reqctx.Keep) []reqctx.TraceData {
		if kind != "" && kind != k.String() {
			return nil
		}
		return t.Recent(k, n)
	}
	return TracezPage{
		Stats:   t.Stats(),
		Sampled: recent(reqctx.KeepSampled),
		Slow:    recent(reqctx.KeepSlow),
		Error:   recent(reqctx.KeepError),
	}, nil
}

func (s *Server) requestz(w http.ResponseWriter, r *http.Request) (any, error) {
	return RequestzPage{Active: s.region.Tracer.Active()}, nil
}

func (s *Server) schedz(w http.ResponseWriter, r *http.Request) (any, error) {
	if s.region.Scheduler == nil {
		return SchedzPage{}, nil
	}
	st := s.region.Scheduler.Snapshot()
	return SchedzPage{Enabled: true, Stats: &st}, nil
}

func (s *Server) tabletz(w http.ResponseWriter, r *http.Request) (any, error) {
	var page TabletsPage
	for i, db := range s.region.Spanners {
		st := db.Stats()
		page.Spanners = append(page.Spanners, DBTablets{Index: i, Stats: &st, Tablets: db.TabletStats()})
	}
	return page, nil
}

// storagez reports each tablet's storage engine: kind, key counts,
// WAL/memtable/segment sizes, and flush/compaction/recovery activity,
// plus region-wide totals for the operator's first glance.
func (s *Server) storagez(w http.ResponseWriter, r *http.Request) (any, error) {
	page := TabletsPage{Totals: &StorageTotals{}}
	sum := page.Totals
	for i, db := range s.region.Spanners {
		infos := db.TabletStats()
		for _, ti := range infos {
			sum.Tablets++
			sum.Keys += int64(ti.Storage.Keys)
			sum.WALBytes += ti.Storage.WALBytes
			sum.MemBytes += ti.Storage.MemtableBytes
			sum.Segments += int64(ti.Storage.Segments)
			sum.SegBytes += ti.Storage.SegmentBytes
			sum.Flushes += ti.Storage.Flushes
			sum.Compactions += ti.Storage.Compactions
			sum.Recoveries += ti.Storage.Recoveries
		}
		page.Spanners = append(page.Spanners, DBTablets{Index: i, Tablets: infos})
	}
	return page, nil
}

// FaultzRequest is the POST body for /debug/faultz.
type FaultzRequest struct {
	// Action is "enable", "disable", or "reset".
	Action string `json:"action"`
	// Spec describes the fault for "enable"; CodeName ("UNAVAILABLE",
	// "ABORTED", ...) overrides Spec.Code for operator convenience.
	Spec     fault.Spec `json:"spec"`
	CodeName string     `json:"code_name,omitempty"`
	// Site names the target for "disable".
	Site string `json:"site,omitempty"`
	// Seed, when non-zero, reseeds the firing schedule before enabling.
	Seed int64 `json:"seed,omitempty"`
}

// faultz lists every fault-injection site with its live spec and
// counters.
func (s *Server) faultz(w http.ResponseWriter, r *http.Request) (any, error) {
	return FaultzPage{Sites: fault.List()}, nil
}

// setFaults arms, disarms, or resets fault-injection sites and answers
// with the sites as faultz lists them.
func (s *Server) setFaults(w http.ResponseWriter, r *http.Request) (any, error) {
	var req FaultzRequest
	if err := decodeJSON(r.Body, &req); err != nil {
		return nil, err
	}
	switch req.Action {
	case "enable":
		if req.CodeName != "" {
			code, err := fault.CodeByName(req.CodeName)
			if err != nil {
				return nil, err
			}
			req.Spec.Code = code
		}
		if req.Seed != 0 {
			fault.SetSeed(req.Seed)
		}
		if err := fault.Enable(req.Spec); err != nil {
			return nil, status.WithCode(status.InvalidArgument, err)
		}
	case "disable":
		if req.Site == "" {
			return nil, status.New(status.InvalidArgument, "server", "disable requires site")
		}
		fault.Disable(req.Site)
	case "reset":
		fault.Reset()
	default:
		return nil, status.Errorf(status.InvalidArgument, "server", "unknown action %q", req.Action)
	}
	return FaultzPage{Sites: fault.List()}, nil
}

// keyvizz reports the keyspace heatmap collector: windows of per-tablet
// and per-range heat cells, scored hotspots, and the correlated event
// timeline. JSON by default; ?format=svg returns a self-contained SVG
// heatmap an operator can open directly in a browser.
func (s *Server) keyvizz(w http.ResponseWriter, r *http.Request) (any, error) {
	kv := s.region.KeyViz
	if kv == nil {
		return nil, status.New(status.NotFound, "server", "keyviz collector not configured")
	}
	snap := kv.Snapshot()
	if r.URL.Query().Get("format") == "svg" {
		w.Header().Set("Content-Type", "image/svg+xml")
		w.Write([]byte(keyviz.RenderSVG(snap)))
		return nil, nil
	}
	return snap, nil
}

// clusterz reports the multi-process cluster's peer table (tablet-server
// roles, addresses, owned ranges, connection-pool health, heartbeats)
// when the region runs behind a cluster coordinator; single-process
// regions report enabled=false.
func (s *Server) clusterz(w http.ResponseWriter, r *http.Request) (any, error) {
	if s.clusterInfo == nil {
		return ClusterzPage{}, nil
	}
	st := s.clusterInfo()
	return ClusterzPage{Enabled: true, Cluster: &st}, nil
}

// advisorz reports the index advisor: per-query-shape planner choices,
// scanned:returned ratios, and composite index suggestions for shapes
// that scan far more entries than they return.
func (s *Server) advisorz(w http.ResponseWriter, r *http.Request) (any, error) {
	return AdvisorzPage{Shapes: s.region.Backend.AdvisorReport(r.URL.Query().Get("db"))}, nil
}

func (s *Server) listenz(w http.ResponseWriter, r *http.Request) (any, error) {
	return ListenzPage{
		Connections: s.region.Frontend.ConnStats(),
		Cache:       s.region.Cache.Stats(),
		Ranges:      s.region.Cache.RangeStats(),
	}, nil
}
