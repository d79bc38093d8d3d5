package server

import (
	"encoding/json"
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
		Plan         backend.PlanExplain   `json:"plan"`
		Alternatives []backend.PlanExplain `json:"alternatives"`
		ReadTime     int64                 `json:"readTime"`
	}
)

// DebugOptions gates the /debug/ status suite.
type DebugOptions struct {
	// Pprof additionally mounts net/http/pprof profiles and expvar under
	// /debug/pprof/ and /debug/vars. Off by default: profiles expose
	// process internals and profiling CPU costs money on a serving task.
	Pprof bool
}

// EnableDebug mounts the operator status pages:
//
//	/debug/metricz   metrics registry (Prometheus text; ?format=json)
//	/debug/tracez    recent sampled/slow/error traces (?kind=, ?n=)
//	/debug/requestz  in-flight requests, oldest first
//	/debug/schedz    fair-scheduler per-database state
//	/debug/tabletz   Spanner tablet boundaries, load, and safe-time state
//	/debug/storagez  per-tablet storage engines (WAL, memtable, segments)
//	/debug/listenz   real-time connections and cache ranges
//	/debug/faultz    fault-injection plane (GET inventory; POST enable/disable)
//	/debug/advisorz  index advisor: per-query-shape planner outcomes (?db=)
//	/debug/keyvizz   keyspace heatmap: per-tablet/range heat, hotspots,
//	                 and the split/rebalance/shed/fault event timeline
//	                 (JSON; ?format=svg renders a self-contained heatmap)
//	/debug/clusterz  multi-process cluster peer table: roles, addresses,
//	                 owned tablet ranges, pool health, last heartbeat
//
// Debug requests bypass the ingress span so scrapes do not pollute the
// RPC metrics they report.
func (s *Server) EnableDebug(opts DebugOptions) {
	s.mux.HandleFunc("/debug/metricz", s.metricz)
	s.mux.HandleFunc("/debug/tracez", s.tracez)
	s.mux.HandleFunc("/debug/requestz", s.requestz)
	s.mux.HandleFunc("/debug/schedz", s.schedz)
	s.mux.HandleFunc("/debug/tabletz", s.tabletz)
	s.mux.HandleFunc("/debug/storagez", s.storagez)
	s.mux.HandleFunc("/debug/listenz", s.listenz)
	s.mux.HandleFunc("/debug/faultz", s.faultz)
	s.mux.HandleFunc("/debug/advisorz", s.advisorz)
	s.mux.HandleFunc("/debug/keyvizz", s.keyvizz)
	s.mux.HandleFunc("/debug/clusterz", s.clusterz)
	if opts.Pprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		s.mux.Handle("/debug/vars", expvar.Handler())
	}
}

func (s *Server) metricz(w http.ResponseWriter, r *http.Request) {
	reg := s.region.Obs
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, reg.Snapshot())
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	reg.WritePrometheus(w)
}

// debugN parses the ?n= result bound (default 16).
func debugN(r *http.Request) int {
	if v, err := strconv.Atoi(r.URL.Query().Get("n")); err == nil && v > 0 {
		return v
	}
	return 16
}

func (s *Server) tracez(w http.ResponseWriter, r *http.Request) {
	t := s.region.Tracer
	if t == nil {
		http.Error(w, "tracer not configured", http.StatusNotFound)
		return
	}
	n := debugN(r)
	kind := r.URL.Query().Get("kind")
	recent := func(k reqctx.Keep) []reqctx.TraceData {
		if kind != "" && kind != k.String() {
			return nil
		}
		return t.Recent(k, n)
	}
	writeJSON(w, TracezPage{
		Stats:   t.Stats(),
		Sampled: recent(reqctx.KeepSampled),
		Slow:    recent(reqctx.KeepSlow),
		Error:   recent(reqctx.KeepError),
	})
}

func (s *Server) requestz(w http.ResponseWriter, r *http.Request) {
	t := s.region.Tracer
	if t == nil {
		http.Error(w, "tracer not configured", http.StatusNotFound)
		return
	}
	writeJSON(w, RequestzPage{Active: t.Active()})
}

func (s *Server) schedz(w http.ResponseWriter, r *http.Request) {
	var page SchedzPage
	if s.region.Scheduler != nil {
		st := s.region.Scheduler.Snapshot()
		page = SchedzPage{Enabled: true, Stats: &st}
	}
	writeJSON(w, page)
}

func (s *Server) tabletz(w http.ResponseWriter, r *http.Request) {
	var page TabletsPage
	for i, db := range s.region.Spanners {
		st := db.Stats()
		page.Spanners = append(page.Spanners, DBTablets{Index: i, Stats: &st, Tablets: db.TabletStats()})
	}
	writeJSON(w, page)
}

// storagez reports each tablet's storage engine: kind, key counts,
// WAL/memtable/segment sizes, and flush/compaction/recovery activity,
// plus region-wide totals for the operator's first glance.
func (s *Server) storagez(w http.ResponseWriter, r *http.Request) {
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
	writeJSON(w, page)
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

// faultz exposes the fault-injection plane: GET lists every site with
// its live spec and counters; POST arms, disarms, or resets sites. It is
// only mounted when the operator opts into the debug suite, exactly like
// the other status pages.
func (s *Server) faultz(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, FaultzPage{Sites: fault.List()})
	case http.MethodPost:
		var req FaultzRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
			return
		}
		switch req.Action {
		case "enable":
			if req.CodeName != "" {
				code, err := fault.CodeByName(req.CodeName)
				if err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				req.Spec.Code = code
			}
			if req.Seed != 0 {
				fault.SetSeed(req.Seed)
			}
			if err := fault.Enable(req.Spec); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
		case "disable":
			if req.Site == "" {
				http.Error(w, "disable requires site", http.StatusBadRequest)
				return
			}
			fault.Disable(req.Site)
		case "reset":
			fault.Reset()
		default:
			http.Error(w, "unknown action "+strconv.Quote(req.Action), http.StatusBadRequest)
			return
		}
		writeJSON(w, FaultzPage{Sites: fault.List()})
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// keyvizz reports the keyspace heatmap collector: windows of per-tablet
// and per-range heat cells, scored hotspots, and the correlated event
// timeline. JSON by default; ?format=svg returns a self-contained SVG
// heatmap an operator can open directly in a browser.
func (s *Server) keyvizz(w http.ResponseWriter, r *http.Request) {
	kv := s.region.KeyViz
	if kv == nil {
		http.Error(w, "keyviz collector not configured", http.StatusNotFound)
		return
	}
	snap := kv.Snapshot()
	if r.URL.Query().Get("format") == "svg" {
		w.Header().Set("Content-Type", "image/svg+xml")
		w.Write([]byte(keyviz.RenderSVG(snap)))
		return
	}
	writeJSON(w, snap)
}

// clusterz reports the multi-process cluster's peer table (tablet-server
// roles, addresses, owned ranges, connection-pool health, heartbeats)
// when the region runs behind a cluster coordinator; single-process
// regions report enabled=false.
func (s *Server) clusterz(w http.ResponseWriter, r *http.Request) {
	var page ClusterzPage
	if s.clusterInfo != nil {
		st := s.clusterInfo()
		page = ClusterzPage{Enabled: true, Cluster: &st}
	}
	writeJSON(w, page)
}

// advisorz reports the index advisor: per-query-shape planner choices,
// scanned:returned ratios, and composite index suggestions for shapes
// that scan far more entries than they return.
func (s *Server) advisorz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, AdvisorzPage{Shapes: s.region.Backend.AdvisorReport(r.URL.Query().Get("db"))})
}

func (s *Server) listenz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, ListenzPage{
		Connections: s.region.Frontend.ConnStats(),
		Cache:       s.region.Cache.Stats(),
		Ranges:      s.region.Cache.RangeStats(),
	})
}
