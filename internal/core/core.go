// Package core assembles the Firestore service (§IV, Figure 4): the
// shared Spanner pool, the multi-tenant catalog with its metadata cache,
// the Backend tasks behind a fair-CPU-share scheduler, the Real-time
// Cache, the Frontend connection layer, operation-based billing, and the
// per-database trigger services. One Region value is the paper's "four
// rectangles" for one cloud region.
package core

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"firestore/internal/backend"
	"firestore/internal/billing"
	"firestore/internal/catalog"
	"firestore/internal/doc"
	"firestore/internal/fault"
	"firestore/internal/frontend"
	"firestore/internal/index"
	"firestore/internal/keyviz"
	"firestore/internal/obs"
	"firestore/internal/query"
	"firestore/internal/reqctx"
	"firestore/internal/rtcache"
	"firestore/internal/rules"
	"firestore/internal/spanner"
	"firestore/internal/storage"
	"firestore/internal/triggers"
	"firestore/internal/truetime"
	"firestore/internal/wfq"
)

// Config tunes a Region. The zero value gives a fast regional deployment
// suitable for tests and examples.
type Config struct {
	// Name labels the region (e.g. "us-central1").
	Name string
	// MultiRegion raises the replication quorum latency (§IV-D2:
	// "Spanner needs a quorum of replicas to agree before committing a
	// write, leading to higher Firestore write latency in multi-regional
	// deployments").
	MultiRegion bool
	// TimeScale scales the replication latency model every commit pays:
	// the quorum round (doubled for a multi-tablet commit), 40 ms per MiB
	// and 30 µs per row written. 1.0 approximates production, 0 turns the
	// model off (fastest tests); experiments use ~0.1. It does not scale
	// Costs.
	TimeScale float64
	// RTRanges is the number of Real-time Cache document-name ranges
	// (rtcache's default if zero).
	RTRanges int
	// RTAutoSplitSubs enables Slicer-style rebalancing: a Real-time
	// Cache range serving at least this many subscriptions is split.
	// Zero disables it.
	RTAutoSplitSubs int
	// SchedulerWorkers is the number of Backend fair-scheduler slots,
	// requests that may run at once, each on its caller's goroutine; zero
	// runs requests unscheduled, still burning their Costs.
	SchedulerWorkers int
	// SchedulerMode selects Fair (default) or FIFO for the isolation
	// ablation.
	SchedulerMode wfq.Mode
	// SchedulerMaxQueue enables load shedding past this queue depth.
	SchedulerMaxQueue int
	// Costs is the CPU time each operation holds a scheduler slot for,
	// slept on the region clock; it is at the harness's scale, not
	// TimeScale's.
	Costs backend.Costs
	// Billing enables the accountant.
	Billing bool
	// ClockEpsilon is the TrueTime uncertainty. Default 50µs.
	ClockEpsilon time.Duration
	// MaxTabletRows splits any Spanner tablet past this many rows; zero
	// disables size-based splits.
	MaxTabletRows int
	// Seed seeds the quorum latency's jitter.
	Seed int64
	// TraceSampleProb is the hierarchical-trace head-sampling probability
	// in [0, 1]; zero uses the tracer default (5%), negative disables
	// sampling (slow and error traces are still kept).
	TraceSampleProb float64
	// SlowTraceThreshold marks a request slow — slow traces are always
	// kept and logged. Zero uses the tracer default (100ms).
	SlowTraceThreshold time.Duration
	// SlowLog, when set, receives one JSON line per slow request.
	SlowLog io.Writer
	// StorageDir, when set, backs every Spanner pool database with the
	// durable storage engine (WAL + memtable + segments) rooted at this
	// directory; pool database i uses StorageDir/spanner-i. Empty keeps
	// the in-memory engine (tests, examples). Reopening a Region on the
	// same directory recovers all committed state.
	StorageDir string
	// MemtableCap caps each durable tablet's memtable in bytes before a
	// segment flush; zero uses the storage default. Ignored without
	// StorageDir.
	MemtableCap int64
	// StorageFactory, when set, supplies the storage factory for pool
	// database i and takes precedence over StorageDir. The cluster
	// coordinator plugs in here to back every pool database with remote
	// tablet-server processes; the rest of the region is unaware the
	// engines live across a wire.
	StorageFactory func(i int) (storage.Factory, error)
	// KeyVizOff disables the keyspace heatmap collector. By default every
	// region samples per-tablet and per-range heat into a bounded ring of
	// time windows (the "Key Visualizer"). Off, the collector is nil and a
	// sample costs one nil check; on, a handful of atomic adds, so it
	// stays on unless an experiment wants it out of the way.
	KeyVizOff bool
}

// Region is one assembled Firestore region.
type Region struct {
	Config    Config
	Clock     truetime.Clock
	Catalog   *catalog.Catalog
	Backend   *backend.Backend
	Frontend  *frontend.Frontend
	Cache     *rtcache.Cache
	Scheduler *wfq.Scheduler
	Billing   *billing.Accountant
	Spanners  []*spanner.DB
	// Obs is the region's metrics registry: every layer feeds it, and the
	// server's /debug/metricz scrapes it.
	Obs *obs.Registry
	// Recorder aggregates span latencies; the server installs it on every
	// request context.
	Recorder *reqctx.Recorder
	// Tracer assembles spans into hierarchical traces for /debug/tracez
	// and /debug/requestz.
	Tracer *reqctx.Tracer
	// KeyViz is the keyspace heatmap collector behind /debug/keyvizz; nil
	// only when Config.KeyVizOff is set.
	KeyViz *keyviz.Collector

	mu     sync.Mutex
	closed bool
}

// spannerPoolSize is the number of pre-initialized Spanner databases
// shared by all Firestore databases (§IV-D1 footnote 3).
const spannerPoolSize = 2

// commitDelay is the replication latency model, nil when TimeScale turns
// it off. A regional quorum agrees in 1-2 ms and a multi-region one, whose
// replicas span metros, in 4-7 ms (§IV-D2); a multi-tablet commit pays a
// second round for two-phase commit; shipping a commit's bytes and rows
// to the quorum costs 40 ms per MiB and 30 µs per row (§V-B2).
func (cfg Config) commitDelay() func(participants, bytes, rows int) time.Duration {
	if cfg.TimeScale <= 0 {
		return nil
	}
	base, jitter := int64(time.Millisecond), int64(time.Millisecond)
	if cfg.MultiRegion {
		base, jitter = int64(4*time.Millisecond), int64(3*time.Millisecond)
	}
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(cfg.Seed))
	return func(participants, bytes, rows int) time.Duration {
		d := int64(40*time.Millisecond)*int64(bytes)/(1<<20) + int64(rows)*int64(30*time.Microsecond)
		mu.Lock()
		for round := 0; round < min(participants, 2); round++ {
			d += base + rng.Int63n(jitter)
		}
		mu.Unlock()
		return time.Duration(float64(d) * cfg.TimeScale)
	}
}

// NewRegion builds and starts a region, panicking if recovery of a
// durable StorageDir fails. Callers that can surface the error (servers,
// benchmarks) should prefer OpenRegion.
func NewRegion(cfg Config) *Region {
	r, err := OpenRegion(cfg)
	if err != nil {
		panic("core: " + err.Error())
	}
	return r
}

// OpenRegion builds and starts a region. With Config.StorageDir set, the
// Spanner pool is recovered from disk (WAL replay + manifest load) before
// the region serves traffic.
func OpenRegion(cfg Config) (*Region, error) {
	if cfg.ClockEpsilon <= 0 {
		cfg.ClockEpsilon = 50 * time.Microsecond
	}
	// The fault plane wraps the region's TrueTime source so the
	// truetime.epsilon site can widen uncertainty intervals, and injected
	// latency sleeps on the same clock the region runs on. The process-wide
	// Default registry serves every region; with multiple regions the last
	// one built owns the clock and metrics attachment (chaos scenarios run
	// one region).
	innerClock := truetime.NewSystem(cfg.ClockEpsilon)
	clock := fault.WrapClock(innerClock)
	fault.SetClock(clock)
	commitDelay := cfg.commitDelay()

	reg := obs.NewRegistry()
	fault.SetObs(reg)
	var kv *keyviz.Collector
	if !cfg.KeyVizOff {
		// The collector reads the UNWRAPPED clock: its own timekeeping
		// must never evaluate fault sites, or the fault sink's event
		// recording would recurse through the truetime.epsilon hook.
		kv = keyviz.New(innerClock)
		// Injected faults land on the same timeline as splits, sheds, and
		// compactions; the sink records the fault site only (shard
		// attribution happens at the faulting layer's own sample calls).
		fault.SetEventSink(func(site string) {
			kv.Record(keyviz.EvFault, keyviz.Event{Source: "fault", Detail: site})
		})
	} else {
		fault.SetEventSink(nil)
	}
	tracer := reqctx.NewTracer(reqctx.TracerConfig{
		SampleProb:    cfg.TraceSampleProb,
		SlowThreshold: cfg.SlowTraceThreshold,
		OnKeep:        slowLogSink(cfg),
	})
	rec := reqctx.NewRecorder(reg)
	rec.SetTracer(tracer)

	pool := make([]*spanner.DB, spannerPoolSize)
	for i := range pool {
		var fac storage.Factory
		if cfg.StorageFactory != nil {
			var err error
			fac, err = cfg.StorageFactory(i)
			if err != nil {
				closeDBs(pool[:i])
				return nil, err
			}
		} else if cfg.StorageDir != "" {
			var err error
			fac, err = storage.NewDiskFactory(
				filepath.Join(cfg.StorageDir, fmt.Sprintf("spanner-%d", i)),
				storage.Options{MemtableCap: cfg.MemtableCap, Obs: reg, KeyViz: kv},
			)
			if err != nil {
				closeDBs(pool[:i])
				return nil, err
			}
		}
		db, err := spanner.Open(spanner.Config{
			Clock:         clock,
			CommitDelay:   commitDelay,
			MaxTabletRows: cfg.MaxTabletRows,
			Obs:           reg,
			Storage:       fac,
			KeyViz:        kv,
		})
		if err != nil {
			closeDBs(pool[:i])
			return nil, err
		}
		pool[i] = db
	}
	cat := catalog.New(pool)
	cache := rtcache.New(rtcache.Config{
		Clock:         clock,
		Ranges:        cfg.RTRanges,
		AutoSplitSubs: cfg.RTAutoSplitSubs,
		Obs:           reg,
		KeyViz:        kv,
	})
	var sched *wfq.Scheduler
	if cfg.SchedulerWorkers > 0 {
		sched = wfq.New(wfq.Config{
			Workers:  cfg.SchedulerWorkers,
			Mode:     cfg.SchedulerMode,
			MaxQueue: cfg.SchedulerMaxQueue,
			Obs:      reg,
			KeyViz:   kv,
		})
	}
	var acct *billing.Accountant
	if cfg.Billing {
		acct = billing.New(billing.DefaultFreeQuota, billing.DefaultRates, nil)
	}
	b := backend.New(backend.Config{
		Catalog:   cat,
		Cache:     cache,
		Scheduler: sched,
		Billing:   acct,
		Costs:     cfg.Costs,
		Obs:       reg,
	})
	f := frontend.New(b, cache, reg)
	return &Region{
		Config:    cfg,
		Clock:     clock,
		Catalog:   cat,
		Backend:   b,
		Frontend:  f,
		Cache:     cache,
		Scheduler: sched,
		Billing:   acct,
		Spanners:  pool,
		Obs:       reg,
		Recorder:  rec,
		Tracer:    tracer,
		KeyViz:    kv,
	}, nil
}

// closeDBs closes the pool databases built so far when OpenRegion fails
// partway, releasing WAL and segment file handles.
func closeDBs(dbs []*spanner.DB) {
	for _, db := range dbs {
		if db != nil {
			db.Close()
		}
	}
}

// slowLogSink builds the tracer's OnKeep sink from cfg.SlowLog: slow (or
// failed-and-slow) traces are emitted as JSON lines.
func slowLogSink(cfg Config) func(reqctx.TraceData) {
	if cfg.SlowLog == nil {
		return nil
	}
	threshold := cfg.SlowTraceThreshold
	if threshold <= 0 {
		threshold = 100 * time.Millisecond
	}
	return reqctx.NewSlowLog(cfg.SlowLog, threshold)
}

// Close stops background services.
func (r *Region) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.mu.Unlock()
	for _, id := range r.Catalog.List() {
		r.Catalog.MustGet(id).Triggers.Close()
	}
	r.Cache.Close()
	if r.Scheduler != nil {
		r.Scheduler.Close()
	}
	// Closing the pool last quiesces WAL/segment file handles after all
	// writers have stopped, so a subsequent OpenRegion on the same
	// StorageDir recovers cleanly.
	closeDBs(r.Spanners)
}

// CreateDatabase initializes a database in this region ("a customer picks
// the location of a database at creation time").
func (r *Region) CreateDatabase(id string) (*catalog.Database, error) {
	return r.Catalog.Create(id)
}

// Triggers returns the database's trigger service, nil if there is no
// such database.
func (r *Region) Triggers(dbID string) *triggers.Service {
	db, err := r.Catalog.Get(dbID)
	if err != nil {
		return nil
	}
	return db.Triggers
}

// Convenience pass-throughs used by the SDKs, server, and harness.

// Commit applies a blind (non-transactional) write batch.
func (r *Region) Commit(ctx context.Context, dbID string, p backend.Principal, ops []backend.WriteOp) (truetime.Timestamp, error) {
	return r.Backend.Commit(ctx, dbID, p, ops)
}

// CommitBulk applies independent single-doc writes grouped by tablet,
// each group in its own parallel transaction, reporting per-op outcomes.
func (r *Region) CommitBulk(ctx context.Context, dbID string, p backend.Principal, ops []backend.WriteOp) ([]backend.BulkResult, error) {
	return r.Backend.CommitBulk(ctx, dbID, p, ops)
}

// CommitTransactional applies a write batch with OCC read validation.
func (r *Region) CommitTransactional(ctx context.Context, dbID string, p backend.Principal, ops []backend.WriteOp, reads []backend.ReadValidation) (truetime.Timestamp, error) {
	return r.Backend.CommitTransactional(ctx, dbID, p, ops, reads)
}

// GetDocument reads one document (strong read when readTS is zero).
func (r *Region) GetDocument(ctx context.Context, dbID string, p backend.Principal, name doc.Name, readTS truetime.Timestamp) (*doc.Document, truetime.Timestamp, error) {
	return r.Backend.GetDocument(ctx, dbID, p, name, readTS)
}

// RunQuery executes a query (strong read when readTS is zero).
func (r *Region) RunQuery(ctx context.Context, dbID string, p backend.Principal, q *query.Query, resume []byte, readTS truetime.Timestamp) (*query.Result, truetime.Timestamp, error) {
	return r.Backend.RunQuery(ctx, dbID, p, q, resume, readTS)
}

// NewConn opens a long-lived real-time connection.
func (r *Region) NewConn(dbID string, p backend.Principal) *frontend.Conn {
	return r.Frontend.NewConn(dbID, p)
}

// SetRules deploys security rules for a database.
func (r *Region) SetRules(dbID, src string) error {
	db, err := r.Catalog.Get(dbID)
	if err != nil {
		return err
	}
	rs, err := rules.Parse(src)
	if err != nil {
		return err
	}
	db.SetRules(rs)
	return nil
}

// AddCompositeIndex registers and backfills a composite index.
func (r *Region) AddCompositeIndex(ctx context.Context, dbID string, def index.Definition) error {
	return r.Backend.AddCompositeIndex(ctx, dbID, def)
}

// AddExemption excludes a field from automatic indexing and backremoves
// its automatic entries.
func (r *Region) AddExemption(ctx context.Context, dbID, collection string, path doc.FieldPath) error {
	return r.Backend.AddExemption(ctx, dbID, collection, path)
}
