// Package fault is the deterministic fault-injection plane. Every layer
// the paper's reliability story depends on (§IV-D2 two-phase commit with
// the Real-time Cache, §IV-D4 out-of-sync signalling, write-trigger
// delivery, TrueTime uncertainty) exposes named injection points —
// fault.Point(ctx, fault.SpannerCommitQuorum) style hooks — that a
// registry arms with programmable behaviors: an error carrying a
// canonical status code, added latency drawn from the injected
// truetime.Clock, dropped or duplicated delivery, crash-and-restart of a
// task, or TrueTime ε inflation.
//
// Disabled is the common case and costs a single atomic load per hook.
//
// Determinism: whether a site fires on its n-th evaluation is a pure
// function of (seed, site, n, probability) — see Fires — so the fault
// schedule for a scenario is reproducible from its seed alone. Which
// concrete operation lands on hit index n still depends on goroutine
// interleaving; the schedule of firing indices does not.
package fault

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"firestore/internal/obs"
	"firestore/internal/status"
	"firestore/internal/truetime"
)

// Canonical injection-site names. Call sites and scenario specs share
// these constants so a typo cannot silently arm a site nothing evaluates.
const (
	// SpannerRead: tablet unavailable — snapshot and transactional reads
	// fail with the injected status code.
	SpannerRead = "spanner.tablet.read"
	// SpannerCommitQuorum: replication-quorum latency spike or failure on
	// the commit path, between prepare and apply.
	SpannerCommitQuorum = "spanner.commit.quorum"
	// SpannerLockWait: lock acquisition fails (lock-wait timeout) or is
	// delayed.
	SpannerLockWait = "spanner.lock.wait"
	// TrueTimeEpsilon: the clock's uncertainty interval is widened by the
	// spec's Latency on every reading (ModeInflate).
	TrueTimeEpsilon = "truetime.epsilon"
	// RTCacheAccept: the Accept RPC is dropped at the cache boundary; the
	// prepare times out and the range goes out-of-sync.
	RTCacheAccept = "rtcache.accept"
	// RTCacheHeartbeat: a heartbeat tick is skipped (Changelog stall);
	// watermarks stop advancing and overdue prepares are detected late.
	RTCacheHeartbeat = "rtcache.heartbeat"
	// RTCacheChangelogCrash: one Changelog task (name range) crashes and
	// restarts with empty in-memory state, resetting its subscribers.
	RTCacheChangelogCrash = "rtcache.changelog.crash"
	// BackendPrepare: the Real-time Cache Prepare (§IV-D2 step 5) fails.
	BackendPrepare = "backend.prepare"
	// BackendAccept: mid-protocol failure between the Spanner commit and
	// the RTC Accept (step 7): drop loses the Accept entirely, error
	// reports the outcome as unknown.
	BackendAccept = "backend.accept"
	// TriggersDeliver: a commit's hand-off to its write triggers is
	// dropped or duplicated (redelivery).
	TriggersDeliver = "triggers.deliver"
	// FrontendConnDeliver: a connection drops a snapshot mid-stream; the
	// frontend must recover by rebuilding the target.
	FrontendConnDeliver = "frontend.conn.deliver"
	// WALAppend: the durable engine's WAL append fails cleanly (error:
	// nothing written, commit aborts) or tears (crash: a partial frame is
	// written and the engine must be recovered; replay truncates the torn
	// tail).
	WALAppend = "wal.append"
	// WALFsync: the group fsync covering a commit record fails. The bytes
	// may already be on disk, so the outcome is unknown: the commit
	// reports ErrCrashed, yet replay may surface it.
	WALFsync = "wal.fsync"
	// SegmentFlush: memtable flush to an immutable segment file fails or
	// stalls; the flush is skipped and retried on a later commit.
	SegmentFlush = "segment.flush"
	// TabletCrashRestart: the tablet process "crashes" after a successful
	// apply: volatile engine state is dropped and the tablet recovers from
	// manifest + WAL replay before serving again.
	TabletCrashRestart = "tablet.crash-restart"
	// TransportPartition: the peer is unreachable — the RPC fails before
	// anything is sent, with the injected status code (default
	// Unavailable). The connection itself stays up, so the partition heals
	// the moment the site disarms or its MaxCount runs out.
	TransportPartition = "transport.partition"
	// TransportSlowLink: added one-way latency on the wire before the
	// request is sent (ModeLatency on the registry's clock).
	TransportSlowLink = "transport.slow-link"
	// TransportHalfOpen: the request reaches the peer and is executed, but
	// the response never comes back — the caller sees DeadlineExceeded and
	// cannot know whether the work happened (the classic ambiguous RPC).
	TransportHalfOpen = "transport.half-open"
	// TransportConnReset: every connection the pool holds for the peer
	// is torn down mid-conversation; the calls in flight on them fail and
	// the pool must re-dial.
	TransportConnReset = "transport.conn-reset"
)

// SiteDoc describes one known injection point for operators (fsctl
// faults list, /debug/faultz).
type SiteDoc struct {
	Site  string `json:"site"`
	Layer string `json:"layer"`
	Modes string `json:"modes"`
	Doc   string `json:"doc"`
}

// Sites is the injection-point inventory, in layer order.
var Sites = []SiteDoc{
	{SpannerRead, "spanner", "error,latency", "tablet unavailable: snapshot/txn reads fail"},
	{SpannerCommitQuorum, "spanner", "error,latency", "replication-quorum latency spike or commit failure"},
	{SpannerLockWait, "spanner", "error,latency", "lock-wait timeout or delayed acquisition"},
	{TrueTimeEpsilon, "truetime", "inflate", "clock uncertainty widened by Latency per reading"},
	{RTCacheAccept, "rtcache", "drop", "Accept lost at the cache; prepare expires, range resets"},
	{RTCacheHeartbeat, "rtcache", "drop", "heartbeat tick skipped (Changelog stall)"},
	{RTCacheChangelogCrash, "rtcache", "crash", "Changelog task crash-and-restart, state lost"},
	{BackendPrepare, "backend", "error", "Real-time Cache Prepare fails (write aborts)"},
	{BackendAccept, "backend", "drop,error", "Accept dropped or outcome reported unknown after commit"},
	{TriggersDeliver, "triggers", "drop,duplicate", "commit hand-off to write triggers loses or redelivers"},
	{FrontendConnDeliver, "frontend", "drop", "connection drops a snapshot mid-stream"},
	{WALAppend, "storage", "error,crash,latency", "WAL append fails cleanly or tears a partial frame"},
	{WALFsync, "storage", "error,latency", "group fsync fails after append: commit outcome unknown"},
	{SegmentFlush, "storage", "error,latency", "memtable flush to segment fails; retried later"},
	{TabletCrashRestart, "storage", "crash", "tablet crash after apply: drop volatile state, recover from disk"},
	{TransportPartition, "transport", "error", "peer unreachable: RPC fails before send, nothing on the wire"},
	{TransportSlowLink, "transport", "latency", "added wire latency before the request is sent"},
	{TransportHalfOpen, "transport", "drop", "request executes on the peer but the response is lost (ambiguous RPC)"},
	{TransportConnReset, "transport", "crash", "peer connections torn down; in-flight calls fail, pool re-dials"},
}

// Mode selects a site's injected behavior.
type Mode string

const (
	// ModeError returns an error with the spec's canonical status code.
	ModeError Mode = "error"
	// ModeLatency sleeps the spec's Latency on the registry's clock, then
	// proceeds.
	ModeLatency Mode = "latency"
	// ModeDrop tells the call site to lose the delivery.
	ModeDrop Mode = "drop"
	// ModeDuplicate tells the call site to deliver twice.
	ModeDuplicate Mode = "duplicate"
	// ModeCrash tells the call site to crash-and-restart its task.
	ModeCrash Mode = "crash"
	// ModeInflate widens TrueTime uncertainty by Latency (the
	// TrueTimeEpsilon site only).
	ModeInflate Mode = "inflate"
)

// Spec arms one site with one behavior.
type Spec struct {
	Site string `json:"site"`
	Mode Mode   `json:"mode"`
	// Code is the canonical status code for ModeError. Zero (OK) means
	// Unavailable.
	Code status.Code `json:"code,omitempty"`
	// Latency is the injected delay (ModeLatency) or the ε widening
	// (ModeInflate).
	Latency time.Duration `json:"latency_ns,omitempty"`
	// Prob is the per-hit firing probability in (0, 1]; zero means 1
	// (always fire).
	Prob float64 `json:"prob,omitempty"`
	// MaxCount stops firing after this many injections; zero means
	// unlimited.
	MaxCount int64 `json:"max_count,omitempty"`
}

// Kind classifies a Decision.
type Kind int

const (
	// KindProceed: no fault; continue normally.
	KindProceed Kind = iota
	// KindError: fail with Decision.Err.
	KindError
	// KindDrop: lose the delivery.
	KindDrop
	// KindDuplicate: deliver twice.
	KindDuplicate
	// KindCrash: crash-and-restart the task.
	KindCrash
)

// Decision is one site evaluation's outcome.
type Decision struct {
	Kind Kind
	Err  error
}

// site is one injection point's armed state and counters. Counters
// survive Disable so post-storm reports see the full tallies.
type site struct {
	mu      sync.Mutex
	spec    Spec
	enabled bool
	hits    atomic.Int64
	fired   atomic.Int64
}

// Registry is a fault-injection plane. The zero value is not usable; use
// NewRegistry or the package-level Default.
type Registry struct {
	// armed counts enabled sites; the fast path for every hook is a
	// single load of it.
	armed atomic.Int64
	seed  atomic.Int64
	clock atomic.Value // clockBox

	mu    sync.Mutex
	sites map[string]*site

	// injected is fault.injected_total{site}, in the registry SetObs
	// named last (a private one until then).
	injected atomic.Pointer[obs.CounterVec]

	// sink, when set, is called with the site name on every injection
	// (armed path only), so observability planes can place faults on a
	// timeline without fault importing them.
	sink atomic.Pointer[func(site string)]
}

// NewRegistry returns an empty, disarmed registry whose latency
// injections sleep on a real-time clock until SetClock replaces it.
// clockBox keeps atomic.Value's concrete type stable across different
// Clock implementations.
type clockBox struct{ c truetime.Clock }

func NewRegistry() *Registry {
	r := &Registry{sites: map[string]*site{}}
	r.clock.Store(clockBox{truetime.NewSystem(0)})
	r.SetObs(obs.NewRegistry())
	return r
}

// Default is the process-wide fault plane every layer's hooks consult.
var Default = NewRegistry()

// SetSeed fixes the deterministic firing schedule. Call before Enable.
func (r *Registry) SetSeed(seed int64) { r.seed.Store(seed) }

// SetClock sets the clock latency injections sleep on, so injected delay
// follows the system under test's TrueTime (and compresses with it).
func (r *Registry) SetClock(c truetime.Clock) {
	if c != nil {
		r.clock.Store(clockBox{c})
	}
}

// SetObs attaches a metrics registry: every injection increments
// fault.injected_total{site=...} there (firestore_fault_injected_total
// in the Prometheus rendering).
func (r *Registry) SetObs(reg *obs.Registry) {
	r.injected.Store(reg.CounterVec("fault.injected_total", "site"))
}

// SetEventSink installs fn to be called with the site name each time a
// fault actually injects (after the deterministic schedule and MaxCount
// checks). fn runs on the faulting goroutine, so it must be cheap and
// must not call back into the registry. A nil fn removes the sink.
func (r *Registry) SetEventSink(fn func(site string)) {
	if fn == nil {
		r.sink.Store(nil)
		return
	}
	r.sink.Store(&fn)
}

// Enable arms a site. Re-enabling an armed site replaces its spec and
// resets its hit/injection counters (a new schedule starts at hit 0).
func (r *Registry) Enable(spec Spec) error {
	if spec.Site == "" {
		return status.New(status.InvalidArgument, "fault", "spec missing site")
	}
	switch spec.Mode {
	case ModeError, ModeLatency, ModeDrop, ModeDuplicate, ModeCrash, ModeInflate:
	default:
		return status.Errorf(status.InvalidArgument, "fault", "unknown mode %q", spec.Mode)
	}
	if spec.Prob < 0 || spec.Prob > 1 {
		return status.Errorf(status.InvalidArgument, "fault", "prob %v outside [0, 1]", spec.Prob)
	}
	if spec.Prob == 0 {
		spec.Prob = 1
	}
	if spec.Mode == ModeError && spec.Code == status.OK {
		spec.Code = status.Unavailable
	}
	r.mu.Lock()
	s, ok := r.sites[spec.Site]
	if !ok {
		s = &site{}
		r.sites[spec.Site] = s
	}
	s.mu.Lock()
	wasEnabled := s.enabled
	s.spec = spec
	s.enabled = true
	s.mu.Unlock()
	s.hits.Store(0)
	s.fired.Store(0)
	if !wasEnabled {
		r.armed.Add(1)
	}
	r.mu.Unlock()
	return nil
}

// Disable disarms a site, keeping its counters for reporting.
func (r *Registry) Disable(siteName string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.sites[siteName]; ok {
		s.mu.Lock()
		wasEnabled := s.enabled
		s.enabled = false
		s.mu.Unlock()
		if wasEnabled {
			r.armed.Add(-1)
		}
	}
}

// Reset disarms every site and discards all counters.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.sites {
		s.mu.Lock()
		if s.enabled {
			r.armed.Add(-1)
		}
		s.enabled = false
		s.mu.Unlock()
	}
	r.sites = map[string]*site{}
}

// eval runs one armed-path site evaluation: counts the hit, consults the
// deterministic schedule, applies MaxCount, and tallies the injection.
// It returns the spec and whether the site fired.
func (r *Registry) eval(siteName string) (Spec, bool) {
	r.mu.Lock()
	s := r.sites[siteName]
	r.mu.Unlock()
	if s == nil {
		return Spec{}, false
	}
	s.mu.Lock()
	spec, enabled := s.spec, s.enabled
	s.mu.Unlock()
	if !enabled {
		return Spec{}, false
	}
	hit := s.hits.Add(1) - 1
	if !Fires(r.seed.Load(), siteName, hit, spec.Prob) {
		return Spec{}, false
	}
	if n := s.fired.Add(1); spec.MaxCount > 0 && n > spec.MaxCount {
		s.fired.Add(-1)
		return Spec{}, false
	}
	r.injected.Load().With(siteName).Inc()
	if f := r.sink.Load(); f != nil {
		(*f)(siteName)
	}
	return spec, true
}

// Decide evaluates a site and returns the full decision, for call sites
// that can drop, duplicate, or crash. Inert (one atomic load) when no
// site is armed.
func (r *Registry) Decide(ctx context.Context, siteName string) Decision {
	if r.armed.Load() == 0 {
		return Decision{}
	}
	return r.decide(ctx, siteName)
}

func (r *Registry) decide(ctx context.Context, siteName string) Decision {
	spec, fired := r.eval(siteName)
	if !fired {
		return Decision{}
	}
	switch spec.Mode {
	case ModeError:
		return Decision{Kind: KindError, Err: status.Errorf(spec.Code, "fault", "injected fault at %s", siteName)}
	case ModeLatency:
		if spec.Latency > 0 {
			r.clock.Load().(clockBox).c.Sleep(spec.Latency)
		}
		return Decision{}
	case ModeDrop:
		return Decision{Kind: KindDrop}
	case ModeDuplicate:
		return Decision{Kind: KindDuplicate}
	case ModeCrash:
		return Decision{Kind: KindCrash}
	default: // ModeInflate is served by InflateEpsilon, not Decide.
		return Decision{}
	}
}

// Point evaluates a site that can only fail or slow down: it returns the
// injected error (ModeError) or nil after any injected latency. Inert
// (one atomic load) when no site is armed.
func (r *Registry) Point(ctx context.Context, siteName string) error {
	if r.armed.Load() == 0 {
		return nil
	}
	return r.decide(ctx, siteName).Err
}

// InflateEpsilon returns the current ε widening for the TrueTimeEpsilon
// site: the spec's Latency when the site fires, zero otherwise.
func (r *Registry) InflateEpsilon() time.Duration {
	if r.armed.Load() == 0 {
		return 0
	}
	spec, fired := r.eval(TrueTimeEpsilon)
	if !fired || spec.Mode != ModeInflate {
		return 0
	}
	return spec.Latency
}

// Fires reports whether a site fires on its hit-th evaluation under
// seed: a pure function, so a scenario's fault schedule is reproducible
// from its seed without rerunning anything.
func Fires(seed int64, siteName string, hit int64, prob float64) bool {
	if prob >= 1 {
		return true
	}
	if prob <= 0 {
		return false
	}
	h := uint64(seed) ^ 0x9e3779b97f4a7c15
	for i := 0; i < len(siteName); i++ {
		h = (h ^ uint64(siteName[i])) * 0x100000001b3
	}
	h ^= uint64(hit) + 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 29
	return float64(h>>11)/float64(1<<53) < prob
}

// Schedule renders the first n firing decisions for a spec under seed as
// a bitstring ("0100100...") — the reproducible fault schedule a chaos
// report prints.
func Schedule(seed int64, spec Spec, n int) string {
	prob := spec.Prob
	if prob == 0 {
		prob = 1
	}
	out := make([]byte, n)
	fired := int64(0)
	for i := 0; i < n; i++ {
		out[i] = '0'
		if Fires(seed, spec.Site, int64(i), prob) {
			if spec.MaxCount == 0 || fired < spec.MaxCount {
				out[i] = '1'
				fired++
			}
		}
	}
	return string(out)
}

// SiteStatus is one site's armed state and counters for operators.
type SiteStatus struct {
	Site      string  `json:"site"`
	Layer     string  `json:"layer,omitempty"`
	Modes     string  `json:"modes,omitempty"`
	Doc       string  `json:"doc,omitempty"`
	Enabled   bool    `json:"enabled"`
	Mode      Mode    `json:"mode,omitempty"`
	Code      string  `json:"code,omitempty"`
	LatencyNS int64   `json:"latency_ns,omitempty"`
	Prob      float64 `json:"prob,omitempty"`
	MaxCount  int64   `json:"max_count,omitempty"`
	Hits      int64   `json:"hits"`
	Injected  int64   `json:"injected"`
}

// List reports every known site (the Sites inventory plus any ad-hoc
// armed site), sorted by name, with armed state and counters.
func (r *Registry) List() []SiteStatus {
	byName := map[string]SiteStatus{}
	for _, d := range Sites {
		byName[d.Site] = SiteStatus{Site: d.Site, Layer: d.Layer, Modes: d.Modes, Doc: d.Doc}
	}
	r.mu.Lock()
	for name, s := range r.sites {
		st := byName[name]
		st.Site = name
		s.mu.Lock()
		if s.enabled {
			st.Enabled = true
			st.Mode = s.spec.Mode
			if s.spec.Mode == ModeError {
				st.Code = s.spec.Code.String()
			}
			st.LatencyNS = int64(s.spec.Latency)
			st.Prob = s.spec.Prob
			st.MaxCount = s.spec.MaxCount
		}
		s.mu.Unlock()
		st.Hits = s.hits.Load()
		st.Injected = s.fired.Load()
		byName[name] = st
	}
	r.mu.Unlock()
	out := make([]SiteStatus, 0, len(byName))
	for _, st := range byName {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

// Injected returns how many times a site has fired.
func (r *Registry) Injected(siteName string) int64 {
	r.mu.Lock()
	s := r.sites[siteName]
	r.mu.Unlock()
	if s == nil {
		return 0
	}
	return s.fired.Load()
}

// WrapClock returns a Clock that widens inner's uncertainty interval by
// the registry's TrueTimeEpsilon inflation when armed, and is a
// pass-through (plus one atomic load per reading) otherwise. CommitWait
// under active inflation polls inner.Sleep, so it should wrap real-time
// clocks; a Manual clock's Sleep returns immediately.
func (r *Registry) WrapClock(inner truetime.Clock) truetime.Clock {
	return &inflatedClock{inner: inner, r: r}
}

type inflatedClock struct {
	inner truetime.Clock
	r     *Registry
}

func (c *inflatedClock) Now() truetime.Interval {
	iv := c.inner.Now()
	if extra := c.r.InflateEpsilon(); extra > 0 {
		iv.Earliest -= truetime.Timestamp(extra)
		iv.Latest += truetime.Timestamp(extra)
	}
	return iv
}

func (c *inflatedClock) After(ts truetime.Timestamp) bool { return c.Now().Earliest > ts }

func (c *inflatedClock) CommitWait(ts truetime.Timestamp) {
	if c.r.armed.Load() == 0 {
		c.inner.CommitWait(ts)
		return
	}
	// Inflation may widen the interval between inner's wake-up and our
	// reading, so poll our own After (which sees the widened ε).
	for !c.After(ts) {
		remaining := ts.Sub(c.Now().Earliest)
		if remaining <= 0 {
			remaining = time.Microsecond
		}
		c.inner.Sleep(remaining)
	}
}

func (c *inflatedClock) Sleep(d time.Duration) { c.inner.Sleep(d) }

// Forward implements truetime.Forwarder when the inner clock does, so
// recovery can re-anchor a wrapped clock past the durable high-water
// mark. On other clocks it is a no-op.
func (c *inflatedClock) Forward(ts truetime.Timestamp) {
	if f, ok := c.inner.(truetime.Forwarder); ok {
		f.Forward(ts)
	}
}

// Package-level wrappers over Default, the registry every layer's hooks
// consult.

// Point evaluates a site on Default; see Registry.Point.
func Point(ctx context.Context, siteName string) error { return Default.Point(ctx, siteName) }

// Decide evaluates a site on Default; see Registry.Decide.
func Decide(ctx context.Context, siteName string) Decision { return Default.Decide(ctx, siteName) }

// Enable arms a site on Default.
func Enable(spec Spec) error { return Default.Enable(spec) }

// Disable disarms a site on Default.
func Disable(siteName string) { Default.Disable(siteName) }

// Reset disarms everything on Default and discards counters.
func Reset() { Default.Reset() }

// SetSeed seeds Default's firing schedule.
func SetSeed(seed int64) { Default.SetSeed(seed) }

// SetClock sets Default's latency clock.
func SetClock(c truetime.Clock) { Default.SetClock(c) }

// SetObs attaches Default's injection counter family to reg.
func SetObs(reg *obs.Registry) { Default.SetObs(reg) }

// SetEventSink installs Default's per-injection callback.
func SetEventSink(fn func(site string)) { Default.SetEventSink(fn) }

// WrapClock wraps inner with Default's ε inflation.
func WrapClock(inner truetime.Clock) truetime.Clock { return Default.WrapClock(inner) }

// List reports Default's site inventory and counters.
func List() []SiteStatus { return Default.List() }

// Injected returns a site's firing count on Default.
func Injected(siteName string) int64 { return Default.Injected(siteName) }

// CodeByName parses a canonical status-code name ("UNAVAILABLE",
// "ABORTED", ...) for operator tooling.
func CodeByName(name string) (status.Code, error) {
	for c := status.OK; c <= status.Internal; c++ {
		if c.String() == name {
			return c, nil
		}
	}
	return 0, status.Errorf(status.InvalidArgument, "fault", "unknown status code %q", name)
}
