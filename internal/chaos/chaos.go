// Package chaos runs named fault-injection scenarios against a full
// in-process region and checks the system's end-to-end invariants while
// faults fire.
//
// A scenario is a seeded workload (writers hammering a small keyspace,
// optional real-time listeners, a trigger handler recording deliveries)
// plus a fault schedule armed through internal/fault. Because fault
// firing is a pure function of (seed, site, hit index), the same seed
// reproduces the same fault schedule run after run; the workload itself
// is driven by rand sources derived from the same seed.
//
// After the fault window closes the runner lets the system settle and
// then checks invariants:
//
//   - listener-convergence: every real-time listener's materialized view
//     equals a fresh re-execution of its query (§IV-D4 reset-and-requery
//     must heal any stream the faults disrupted).
//   - trigger-at-least-once: every committed write is observed by the
//     trigger handler at least once (the transactional message queue may
//     redeliver, never lose).
//   - external-consistency: a strong read issued after a commit returns
//     a document at least as new as that commit (§IV-C TrueTime commit
//     wait).
//   - validation-clean / repair-zero: backend.ValidateDatabase reports
//     no index<->document divergence and RepairIndexes finds nothing to
//     fix.
//   - expectation checks: scenarios that are supposed to trip
//     out-of-sync or reset-and-requery assert the respective counters
//     actually moved, so the faults provably exercised the recovery
//     paths rather than missing them.
package chaos

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"firestore/internal/backend"
	"firestore/internal/cluster"
	"firestore/internal/core"
	"firestore/internal/doc"
	"firestore/internal/fault"
	"firestore/internal/frontend"
	"firestore/internal/keyviz"
	"firestore/internal/obs"
	"firestore/internal/query"
	"firestore/internal/storage"
	"firestore/internal/triggers"
	"firestore/internal/truetime"
	"firestore/internal/ycsb"
)

// dbID is the database every scenario runs against.
const dbID = "chaos"

// collection holds the scenario keyspace. A single top-level collection
// maps to one rtcache range, which concentrates faults like
// changelog-crash on the data under test.
const collection = "/kv"

// Scenario is one named chaos experiment: a workload shape plus the
// faults armed while it runs and the recovery paths it is expected to
// trip.
type Scenario struct {
	Name string
	Doc  string
	// Faults are armed (in order) after the preload, before writers
	// start.
	Faults []fault.Spec

	// Workload shape. Zero values take the defaults in withDefaults.
	Docs      int // distinct documents in the keyspace
	Writers   int // concurrent writer goroutines
	Writes    int // commits per writer
	Listeners int // real-time listener connections

	// ExpectOutOfSync asserts the rtcache reported at least one
	// out-of-sync reset (§IV-D4).
	ExpectOutOfSync bool
	// ExpectRequery asserts the frontend re-executed at least one
	// query (reset-and-requery).
	ExpectRequery bool
	// ExpectKeyVizCrashFidelity asserts keyviz collector fidelity for
	// crash faults: the crashed range appears as an event on the keyviz
	// timeline, the injected fault itself is on the same timeline, and
	// the crash victim is the top-scored range cell in the window
	// covering the crash (the scenario keyspace is one collection, so
	// one range carries all the heat).
	ExpectKeyVizCrashFidelity bool

	// Cluster runs the region's storage on tablet-server child
	// processes behind a cluster coordinator: every engine op crosses
	// the wire transport, so the transport.* fault sites are on the
	// path and SIGKILL of a child is a real process crash. Options.Dir
	// roots per-peer data directories (disk children) and the host
	// binary must call cluster.MaybeRunTabletChild() first thing in
	// main()/TestMain(). Children host disk engines when Durable is
	// set, mem engines otherwise (mem survives reconnects, not kills).
	Cluster bool
	// ClusterPeers is the tablet-server process count (default 2).
	ClusterPeers int
	// KillPeer SIGKILLs one tablet-server process once, mid-run, after
	// roughly half the writes have been issued, then respawns it under
	// the same name and data directory. Acknowledged commits must
	// survive by WAL roll-forward and the peer must rejoin and reclaim
	// its tablets. Requires Cluster and Durable.
	KillPeer bool

	// Durable backs the region's Spanner pool with the disk engine
	// (WAL + memtable + segments) rooted at Options.Dir, and adds a
	// restart-durability invariant: after the run, the whole region is
	// closed and reopened from disk and must recover the exact
	// authoritative state with clean validation.
	Durable bool
	// MemtableCap caps each durable tablet's memtable (bytes); the
	// durable default (256 B) is deliberately tiny so the workload is
	// guaranteed to round-trip through segment flush and compaction.
	MemtableCap int64
	// ExpectRecoveries asserts at least one tablet engine crashed and
	// was recovered (WAL replay) during the run.
	ExpectRecoveries bool
	// ExpectFlushes asserts at least one memtable flushed to a segment.
	ExpectFlushes bool
	// ExpectCompactions asserts at least one segment compaction ran.
	ExpectCompactions bool
}

func (s Scenario) withDefaults() Scenario {
	if s.Docs == 0 {
		s.Docs = 16
	}
	if s.Writers == 0 {
		s.Writers = 4
	}
	if s.Writes == 0 {
		s.Writes = 25
	}
	if s.Cluster && s.ClusterPeers == 0 {
		s.ClusterPeers = 2
	}
	if s.Durable && s.MemtableCap == 0 {
		// Tiny on purpose: even the Quick workload must flush every few
		// commits so segment flush and compaction are genuinely on the
		// path under test.
		s.MemtableCap = 256
	}
	return s
}

// Options tune one Run.
type Options struct {
	// Seed drives both the fault schedule and the workload. The same
	// seed reproduces the same run.
	Seed int64
	// Quick shrinks the workload for smoke tests.
	Quick bool
	// Dir roots a Durable scenario's on-disk state. The chaos runner
	// itself never touches the filesystem (all file I/O lives in
	// internal/storage), so callers must supply a scratch directory —
	// typically t.TempDir() or os.MkdirTemp in a cmd.
	Dir string
	// Log, when set, receives progress lines.
	Log func(format string, args ...any)
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		o.Log(format, args...)
	}
}

// Invariant is one post-run check.
type Invariant struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// Report is the outcome of one scenario run.
type Report struct {
	Scenario   string `json:"scenario"`
	Seed       int64  `json:"seed"`
	Commits    int    `json:"commits"`
	CommitErrs int    `json:"commit_errs"`
	OutOfSyncs int64  `json:"out_of_syncs"`
	Requeries  int64  `json:"requeries"`
	// Storage-engine activity over the run (durable scenarios).
	Recoveries  int64 `json:"recoveries,omitempty"`
	Flushes     int64 `json:"flushes,omitempty"`
	Compactions int64 `json:"compactions,omitempty"`
	// Injected counts fault firings per site over the run.
	Injected map[string]int64 `json:"injected"`
	// Schedules holds, per site, the first 64 hit decisions as a
	// '0'/'1' string — a fingerprint proving determinism by seed.
	Schedules  map[string]string `json:"schedules"`
	Invariants []Invariant       `json:"invariants"`
	Pass       bool              `json:"pass"`
}

func (r *Report) check(name string, ok bool, format string, args ...any) {
	r.Invariants = append(r.Invariants, Invariant{
		Name:   name,
		OK:     ok,
		Detail: fmt.Sprintf(format, args...),
	})
	if !ok {
		r.Pass = false
	}
}

var priv = backend.Principal{Privileged: true}

// listenerView materializes one listener's stream of snapshot events
// into the result set it implies.
type listenerView struct {
	mu   sync.Mutex
	docs map[string]*doc.Document
	ts   truetime.Timestamp
}

func (v *listenerView) apply(ev frontend.SnapshotEvent) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if ev.Initial {
		v.docs = make(map[string]*doc.Document, len(ev.Added))
	}
	if v.docs == nil {
		v.docs = map[string]*doc.Document{}
	}
	for _, d := range ev.Added {
		v.docs[d.Name.String()] = d
	}
	for _, d := range ev.Modified {
		v.docs[d.Name.String()] = d
	}
	for _, n := range ev.Removed {
		delete(v.docs, n.String())
	}
	v.ts = ev.TS
}

// snapshot returns a copy of the current view keyed by document name,
// with the value of the "v" field.
func (v *listenerView) snapshot() map[string]int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make(map[string]int64, len(v.docs))
	for name, d := range v.docs {
		out[name] = d.Fields["v"].IntVal()
	}
	return out
}

// commitRecord is one successful write as the writer observed it.
type commitRecord struct {
	name doc.Name
	ts   truetime.Timestamp
	v    int64
}

// Run executes one scenario and reports the invariant results. It
// resets the fault plane on exit.
func Run(sc Scenario, opt Options) (*Report, error) {
	sc = sc.withDefaults()
	if opt.Quick {
		sc.Writes = 10
	}
	rep := &Report{
		Scenario:  sc.Name,
		Seed:      opt.Seed,
		Injected:  map[string]int64{},
		Schedules: map[string]string{},
		Pass:      true,
	}

	cfg := core.Config{
		Name:            "chaos",
		SpannerPoolSize: 2,
		RTRanges:        4,
		ClockEpsilon:    10 * time.Microsecond,
		Seed:            opt.Seed,
	}
	if sc.Durable {
		if opt.Dir == "" {
			return nil, fmt.Errorf("scenario %s is durable: Options.Dir must point at a scratch directory", sc.Name)
		}
		cfg.StorageDir = opt.Dir
		cfg.MemtableCap = sc.MemtableCap
	}

	// Cluster scenarios put a coordinator and tablet-server child
	// processes under the region before it opens: storage ops cross the
	// wire, and the harness can SIGKILL a child mid-run.
	var harn *cluster.Harness
	var coord *cluster.Coordinator
	if sc.Cluster {
		if opt.Dir == "" {
			return nil, fmt.Errorf("scenario %s is clustered: Options.Dir must point at a scratch directory", sc.Name)
		}
		var err error
		coord, err = cluster.NewCoordinator(cluster.CoordinatorConfig{})
		if err != nil {
			return nil, fmt.Errorf("start coordinator: %w", err)
		}
		defer coord.Close()
		kind := cluster.KindMem
		if sc.Durable {
			kind = cluster.KindDisk
		}
		harn = cluster.NewHarness(coord, filepath.Join(opt.Dir, "peers"), kind)
		harn.MemtableCap = sc.MemtableCap
		defer harn.Close()
		for i := 0; i < sc.ClusterPeers; i++ {
			name := fmt.Sprintf("ts%d", i)
			if err := harn.Spawn(name); err != nil {
				return nil, fmt.Errorf("spawn tablet server %s: %w", name, err)
			}
		}
		opt.logf("cluster up: coordinator %s + %d %s tablet-server process(es)", coord.Addr(), sc.ClusterPeers, kind)
		// The pool's storage now lives in the children; the region talks
		// to it through the coordinator's remote factories.
		cfg.StorageDir = ""
		cfg.StorageFactory = func(i int) (storage.Factory, error) { return coord.Factory(i), nil }
	} else if sc.KillPeer {
		return nil, fmt.Errorf("scenario %s sets KillPeer without Cluster", sc.Name)
	}

	region, err := core.OpenRegion(cfg)
	if err != nil {
		return nil, err
	}
	defer region.Close()
	// Reset before the region closes: a latency fault left armed would
	// otherwise slow teardown.
	defer fault.Reset()

	if _, err := region.CreateDatabase(dbID); err != nil {
		return nil, err
	}
	ctx := context.Background()

	// Trigger handler first, so every commit (including preload) is
	// observed. Deliveries are keyed by name@ts: at-least-once delivery
	// may repeat a key, never skip one.
	var trigMu sync.Mutex
	delivered := map[string]int{}
	svc := region.Triggers(dbID)
	svc.OnWrite(collection[1:], func(_ context.Context, ch triggers.Change) error {
		trigMu.Lock()
		delivered[fmt.Sprintf("%s@%d", ch.Name, ch.TS)]++
		trigMu.Unlock()
		return nil
	})

	// Preload the keyspace so listeners and writers start from a full
	// result set.
	var commits []commitRecord
	for i := 0; i < sc.Docs; i++ {
		name := docName(i)
		ts, err := region.Commit(ctx, dbID, priv, []backend.WriteOp{setOp(name, 0, -1)})
		if err != nil {
			return nil, fmt.Errorf("preload %s: %w", name, err)
		}
		commits = append(commits, commitRecord{name: name, ts: ts, v: 0})
	}

	// Listeners register before faults arm so the fault window covers
	// live streams, not initial registration.
	views := make([]*listenerView, sc.Listeners)
	var wgListen sync.WaitGroup
	// Conn.Close closes the events channel, which ends each drain
	// goroutine; wait for them so nothing races region teardown.
	defer wgListen.Wait()
	for i := range views {
		v := &listenerView{}
		views[i] = v
		conn := region.NewConn(dbID, priv)
		defer conn.Close()
		wgListen.Add(1)
		go func(c *frontend.Conn) {
			defer wgListen.Done()
			for ev := range c.Events() {
				v.apply(ev)
			}
		}(conn)
		if _, err := conn.Listen(ctx, &query.Query{Collection: doc.MustCollection(collection)}); err != nil {
			return nil, fmt.Errorf("listen: %w", err)
		}
	}

	// Arm the fault plane. Seed first: Enable resets per-site hit
	// counters, so the schedule starts at hit 0 under this seed.
	fault.SetSeed(opt.Seed)
	for _, spec := range sc.Faults {
		if err := fault.Enable(spec); err != nil {
			return nil, fmt.Errorf("enable %s: %w", spec.Site, err)
		}
		rep.Schedules[spec.Site] = fault.Schedule(opt.Seed, spec, 64)
	}
	opt.logf("armed %d fault(s), running %d writers x %d writes over %d docs",
		len(sc.Faults), sc.Writers, sc.Writes, sc.Docs)

	// Writers. Each has its own seed-derived rand source; keys come
	// from a YCSB uniform chooser over the keyspace.
	var (
		wg         sync.WaitGroup
		commitMu   sync.Mutex
		commitErrs int
		extViol    []string
		seq        int64
	)
	// Some sites fire per heartbeat tick, not per write, and a fast box
	// finishes the write quota inside one tick. Writers keep the traffic
	// up past their quota until every armed fault has bitten at least
	// once (the injected:<site> invariant below), for at most holdOpen.
	const holdOpen = 200 * time.Millisecond
	allFired := func() bool {
		for _, spec := range sc.Faults {
			if fault.Injected(spec.Site) == 0 {
				return false
			}
		}
		return true
	}
	holdUntil := time.Now().Add(holdOpen)
	for w := 0; w < sc.Writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(opt.Seed*1_000_003 + int64(w)))
			chooser := ycsb.Uniform{N: sc.Docs}
			for i := 0; i < sc.Writes || !allFired() && time.Now().Before(holdUntil); i++ {
				name := docName(chooser.Next(rng))
				commitMu.Lock()
				seq++
				v := seq
				commitMu.Unlock()
				ts, err := region.Commit(ctx, dbID, priv, []backend.WriteOp{setOp(name, v, w)})
				if err != nil {
					commitMu.Lock()
					commitErrs++
					commitMu.Unlock()
					continue
				}
				rec := commitRecord{name: name, ts: ts, v: v}
				// External consistency: a strong read after the commit
				// must see a document at least as new as the commit.
				d, _, rerr := region.GetDocument(ctx, dbID, priv, name, 0)
				commitMu.Lock()
				commits = append(commits, rec)
				if rerr == nil && (d == nil || d.UpdateTime < ts) {
					got := truetime.Timestamp(0)
					if d != nil {
						got = d.UpdateTime
					}
					extViol = append(extViol, fmt.Sprintf("%s: strong read saw %d < commit %d", name, got, ts))
				}
				commitMu.Unlock()
			}
		}(w)
	}

	// KillPeer: once half the writes have been issued, SIGKILL one
	// tablet-server process and respawn it under the same name and data
	// directory. Commits against its tablets fail while it is down; the
	// respawned peer rejoins, WAL replay rolls acknowledged commits
	// forward, and lazy recovery re-opens engines on the next access.
	killerDone := make(chan struct{})
	var killErr error
	if sc.KillPeer {
		// The victim must host the tablets the workload actually writes:
		// the chaos database hashes to one pool database (the catalog's
		// fnv placement rule), and only the peer(s) owning that pool
		// database's tablets feel a kill.
		h := fnv.New32a()
		h.Write([]byte(dbID))
		poolIdx := int(h.Sum32()) % cfg.SpannerPoolSize
		victim := ""
		owned := 0
		for _, p := range coord.Snapshot().Peers {
			n := 0
			for _, ot := range p.Owned {
				if ot.DB == poolIdx {
					n++
				}
			}
			if n > owned {
				victim, owned = p.Name, n
			}
		}
		if victim == "" {
			return nil, fmt.Errorf("scenario %s: no peer owns tablets of pool database %d, nothing to kill", sc.Name, poolIdx)
		}
		half := int64(sc.Writers*sc.Writes) / 2
		go func() {
			defer close(killerDone)
			for {
				commitMu.Lock()
				issued := seq
				commitMu.Unlock()
				if issued >= half {
					break
				}
				time.Sleep(time.Millisecond)
			}
			opt.logf("SIGKILL peer %s (%d tablet(s)) mid-run (%d/%d writes issued)", victim, owned, half, sc.Writers*sc.Writes)
			if err := harn.Kill(victim); err != nil {
				killErr = fmt.Errorf("kill %s: %w", victim, err)
				return
			}
			if err := harn.Spawn(victim); err != nil {
				killErr = fmt.Errorf("respawn %s: %w", victim, err)
				return
			}
			opt.logf("peer %s respawned and rejoined", victim)
		}()
	} else {
		close(killerDone)
	}

	wg.Wait()
	<-killerDone
	if sc.KillPeer {
		rep.check("peer-kill-respawn", killErr == nil, "SIGKILL + respawn of one tablet-server process: %v", killErr)
	}
	rep.Commits = len(commits)
	rep.CommitErrs = commitErrs

	// Close the fault window before settling: recovery must complete
	// with the system healthy again.
	for _, spec := range sc.Faults {
		rep.Injected[spec.Site] = fault.Injected(spec.Site)
	}
	fault.Reset()
	opt.logf("fault window closed: %d commits, %d commit errors", rep.Commits, rep.CommitErrs)

	// Settle: listeners converge to a fresh re-execution of the query.
	want, err := queryState(ctx, region)
	if err != nil {
		return nil, fmt.Errorf("requery: %w", err)
	}
	deadline := time.Now().Add(8 * time.Second)
	for i, v := range views {
		for {
			got := v.snapshot()
			if mapsEqual(got, want) {
				break
			}
			if time.Now().After(deadline) {
				rep.check("listener-convergence", false,
					"listener %d view (%d docs) never converged to requeried state (%d docs): %s (frontend.late_updates=%d)",
					i, len(got), len(want), firstDiff(got, want),
					region.Obs.Counter("frontend.late_updates", obs.DB(dbID)).Value())
				break
			}
			time.Sleep(2 * time.Millisecond)
			// The authoritative state can still advance while settling.
			if want, err = queryState(ctx, region); err != nil {
				return nil, fmt.Errorf("requery: %w", err)
			}
		}
	}
	if sc.Listeners > 0 && invariantMissing(rep, "listener-convergence") {
		rep.check("listener-convergence", true, "%d listener(s) converged to requeried state", sc.Listeners)
	}

	// Trigger at-least-once: every committed name@ts must eventually be
	// delivered (duplicates allowed).
	trigDeadline := time.Now().Add(5 * time.Second)
	var missing []string
	for {
		missing = missing[:0]
		trigMu.Lock()
		for _, rec := range commits {
			if delivered[fmt.Sprintf("%s@%d", rec.name, rec.ts)] == 0 {
				missing = append(missing, fmt.Sprintf("%s@%d", rec.name, rec.ts))
			}
		}
		trigMu.Unlock()
		if len(missing) == 0 || time.Now().After(trigDeadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	rep.check("trigger-at-least-once", len(missing) == 0,
		"%d/%d commits delivered to trigger handler (missing %v)",
		len(commits)-len(missing), len(commits), truncate(missing, 3))

	rep.check("external-consistency", len(extViol) == 0,
		"%d strong-read-after-commit checks violated (%v)", len(extViol), truncate(extViol, 3))

	// Index <-> document cross-check.
	vr, err := region.Backend.ValidateDatabase(ctx, dbID)
	if err != nil {
		return nil, fmt.Errorf("validate: %w", err)
	}
	rep.check("validation-clean", vr.Clean(),
		"docs=%d entries=%d corrupt=%d missing=%d orphans=%d",
		vr.Documents, vr.IndexEntries, len(vr.CorruptDocs), len(vr.MissingEntries), len(vr.OrphanEntries))
	repaired, err := region.Backend.RepairIndexes(ctx, dbID)
	if err != nil {
		return nil, fmt.Errorf("repair: %w", err)
	}
	rep.check("repair-zero", repaired == 0, "RepairIndexes fixed %d entries", repaired)

	rep.OutOfSyncs = region.Cache.Stats().OutOfSyncs
	rep.Requeries = region.Obs.Counter("frontend.requeries", obs.DB(dbID)).Value()
	if sc.ExpectOutOfSync {
		rep.check("tripped-out-of-sync", rep.OutOfSyncs > 0,
			"rtcache out_of_syncs=%d (scenario must trip the §IV-D4 reset path)", rep.OutOfSyncs)
	}
	if sc.ExpectRequery {
		rep.check("tripped-requery", rep.Requeries > 0,
			"frontend requeries=%d (scenario must trip reset-and-requery)", rep.Requeries)
	}
	for _, spec := range sc.Faults {
		rep.check("injected:"+spec.Site, rep.Injected[spec.Site] > 0,
			"fault fired %d time(s)", rep.Injected[spec.Site])
	}
	if sc.ExpectKeyVizCrashFidelity {
		checkKeyVizCrashFidelity(rep, region)
	}

	rep.Recoveries, rep.Flushes, rep.Compactions = storageActivity(region)
	if sc.ExpectRecoveries {
		rep.check("tripped-recovery", rep.Recoveries > 0,
			"tablet recoveries=%d (scenario must crash and WAL-replay at least one engine)", rep.Recoveries)
	}
	if sc.ExpectFlushes {
		rep.check("tripped-flush", rep.Flushes > 0,
			"segment flushes=%d (workload must overflow the %dB memtable cap)", rep.Flushes, sc.MemtableCap)
	}
	if sc.ExpectCompactions {
		rep.check("tripped-compaction", rep.Compactions > 0,
			"compactions=%d (workload must accumulate enough segments to compact)", rep.Compactions)
	}

	// Restart durability: tear the whole region down and recover it from
	// disk. The reopened region must serve exactly the authoritative
	// pre-shutdown state, with index validation still clean.
	if sc.Durable {
		finalWant, err := queryState(ctx, region)
		if err != nil {
			return nil, fmt.Errorf("final requery: %w", err)
		}
		region.Close()
		re, err := core.OpenRegion(cfg)
		if err != nil {
			rep.check("restart-durability", false, "reopen after shutdown: %v", err)
			return rep, nil
		}
		defer re.Close()
		// Catalog placement is a deterministic hash of the database ID,
		// so re-creating it rebinds the recovered directory prefix.
		if _, err := re.CreateDatabase(dbID); err != nil {
			return nil, fmt.Errorf("recreate database after restart: %w", err)
		}
		got, err := queryState(ctx, re)
		if err != nil {
			return nil, fmt.Errorf("requery after restart: %w", err)
		}
		rep.check("restart-durability", mapsEqual(got, finalWant),
			"recovered %d docs (want %d): %s", len(got), len(finalWant), firstDiff(got, finalWant))
		vr2, err := re.Backend.ValidateDatabase(ctx, dbID)
		if err != nil {
			return nil, fmt.Errorf("validate after restart: %w", err)
		}
		rep.check("restart-validation-clean", vr2.Clean(),
			"docs=%d entries=%d corrupt=%d missing=%d orphans=%d",
			vr2.Documents, vr2.IndexEntries, len(vr2.CorruptDocs), len(vr2.MissingEntries), len(vr2.OrphanEntries))
	}

	return rep, nil
}

// checkKeyVizCrashFidelity asserts the keyspace-telemetry collector
// tells the truth about a crash scenario: the crashed range is an event
// on the timeline, the injected fault is on the same timeline, and the
// victim is the top-scored range in the window covering the crash.
func checkKeyVizCrashFidelity(rep *Report, region *core.Region) {
	kv := region.KeyViz
	if kv == nil {
		rep.check("keyviz-crash-fidelity", false, "region has no keyviz collector")
		return
	}
	evs := kv.Events()
	var crash *keyviz.Event
	faultOnTimeline := false
	for i := range evs {
		if evs[i].Site == keyviz.EvRangeCrash && crash == nil {
			crash = &evs[i]
		}
		if evs[i].Site == keyviz.EvFault {
			faultOnTimeline = true
		}
	}
	rep.check("keyviz-fault-on-timeline", faultOnTimeline,
		"injected faults on timeline=%v (fault sink must feed the keyviz event log)", faultOnTimeline)
	if crash == nil {
		rep.check("keyviz-crash-fidelity", false,
			"no %s event on the keyviz timeline (%d events total)", keyviz.EvRangeCrash, len(evs))
		return
	}
	shard, ops, ok := kv.TopShard(keyviz.SrcRange, crash.TS)
	rep.check("keyviz-crash-fidelity", ok && shard == crash.Shard,
		"crash victim range %d vs top-scored range %d (%d ops, found=%v) in the window covering the crash",
		crash.Shard, shard, ops, ok)
}

// storageActivity sums engine recoveries, flushes, and compactions over
// the region's Spanner pool.
func storageActivity(region *core.Region) (recoveries, flushes, compactions int64) {
	for _, db := range region.Spanners {
		recoveries += db.Stats().Recoveries
		for _, ti := range db.TabletStats() {
			flushes += ti.Storage.Flushes
			compactions += ti.Storage.Compactions
		}
	}
	// An engine's own Stats start over when a crash reopens it; where the
	// engines feed the region's registry its counters span their lifetimes,
	// so a crash after the last compaction does not hide it.
	flushes = max(flushes, region.Obs.Counter("storage.flushes", nil).Value())
	compactions = max(compactions, region.Obs.Counter("storage.compactions", nil).Value())
	return recoveries, flushes, compactions
}

// queryState re-executes the scenario query and returns name -> v.
func queryState(ctx context.Context, region *core.Region) (map[string]int64, error) {
	res, _, err := region.RunQuery(ctx, dbID, priv,
		&query.Query{Collection: doc.MustCollection(collection)}, nil, 0)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(res.Docs))
	for _, d := range res.Docs {
		out[d.Name.String()] = d.Fields["v"].IntVal()
	}
	return out, nil
}

func docName(i int) doc.Name {
	return doc.MustName(fmt.Sprintf("%s/%s", collection, ycsb.Key(i)))
}

func setOp(name doc.Name, v int64, writer int) backend.WriteOp {
	return backend.WriteOp{
		Kind: backend.OpSet,
		Name: name,
		Fields: map[string]doc.Value{
			"v": doc.Int(v),
			"w": doc.Int(int64(writer)),
		},
	}
}

func mapsEqual(a, b map[string]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

func firstDiff(got, want map[string]int64) string {
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		gv, ok := got[k]
		if !ok {
			return fmt.Sprintf("missing %s (want v=%d)", k, want[k])
		}
		if gv != want[k] {
			return fmt.Sprintf("%s: got v=%d want v=%d", k, gv, want[k])
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			return fmt.Sprintf("extra %s (v=%d)", k, got[k])
		}
	}
	return "views equal"
}

func invariantMissing(rep *Report, name string) bool {
	for _, inv := range rep.Invariants {
		if inv.Name == name {
			return false
		}
	}
	return true
}

func truncate(s []string, n int) []string {
	if len(s) <= n {
		return s
	}
	return append(append([]string{}, s[:n]...), fmt.Sprintf("... +%d more", len(s)-n))
}
