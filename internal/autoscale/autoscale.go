// Package autoscale models Google's auto-scaling infrastructure as the
// paper uses it (§IV-C, §V-B): a pool of identical tasks whose size
// tracks offered load with a configurable reaction delay, so that "idle
// and mostly-idle databases use extremely few resources" and traffic
// spikes first queue (raising tail latency) and then get absorbed as the
// pool grows — the effect visible in Fig. 7–9.
//
// The pool is deliberately abstract: a "task" is a capacity unit able to
// serve TaskThroughput operations per second. Components (Frontend,
// Backend) consult the pool for the per-operation queueing penalty at
// their current offered load.
package autoscale

import (
	"math"
	"sync"
	"time"

	"firestore/internal/obs"
)

// Config tunes a Pool.
type Config struct {
	// MinTasks is the floor (and starting) pool size. Default 1.
	MinTasks int
	// TaskThroughput is operations/sec one task absorbs. Default 1000.
	TaskThroughput float64
	// TargetUtilization is the utilization the autoscaler aims for.
	// Default 0.6.
	TargetUtilization float64
	// ReactionDelay is how long load must be observed before the pool
	// resizes toward it — "auto-scaling incorporates delays because
	// short-lived traffic spikes do not merit auto-scaling" (§IV-C).
	// Default 1s.
	ReactionDelay time.Duration
	// MaxStepFactor bounds a single resize to this multiple of the
	// current size (gradual scale-up). Default 2.0.
	MaxStepFactor float64
	// Name labels this pool's metrics (e.g. "frontend", "backend").
	Name string
	// Obs receives pool-size and utilization gauges plus resize-event
	// counters, labeled {pool=Name}.
	Obs *obs.Registry
}

// Pool is an auto-scaled task pool. Load is reported via Observe; the
// pool resizes lazily when queried.
type Pool struct {
	cfg Config

	mu         sync.Mutex
	tasks      int
	lastResize time.Time

	// Load accounting: exponentially-decayed ops/sec estimate.
	rate       float64
	lastUpdate time.Time
	// pendingSince records when the current over/under-load condition
	// began, for the reaction delay.
	pendingSince time.Time
	pendingDir   int

	resizes *obs.CounterVec // autoscale.resizes{pool,dir}
}

// New creates a pool.
func New(cfg Config) *Pool {
	if cfg.MinTasks <= 0 {
		cfg.MinTasks = 1
	}
	if cfg.TaskThroughput <= 0 {
		cfg.TaskThroughput = 1000
	}
	if cfg.TargetUtilization <= 0 || cfg.TargetUtilization > 1 {
		cfg.TargetUtilization = 0.6
	}
	if cfg.ReactionDelay <= 0 {
		cfg.ReactionDelay = time.Second
	}
	if cfg.MaxStepFactor <= 1 {
		cfg.MaxStepFactor = 2.0
	}
	now := time.Now()
	reg := obs.OrNew(cfg.Obs)
	p := &Pool{cfg: cfg, tasks: cfg.MinTasks, lastResize: now, lastUpdate: now,
		resizes: reg.CounterVec("autoscale.resizes", "pool", "dir")}
	reg.GaugeVec("autoscale.tasks", "pool").With(cfg.Name).SetFunc(func() float64 {
		return float64(p.Tasks())
	})
	reg.GaugeVec("autoscale.utilization", "pool").With(cfg.Name).SetFunc(p.Utilization)
	return p
}

// rateHalfLife is the decay half-life of the load estimate.
const rateHalfLife = 500 * time.Millisecond

// Observe reports n operations arriving now.
func (p *Pool) Observe(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.decayLocked(time.Now())
	// Each op contributes 1/halflife-normalized weight to the ops/sec
	// estimate: adding n ops "now" bumps the rate by n per half-life.
	p.rate += float64(n) * float64(time.Second) / float64(rateHalfLife)
	p.maybeResizeLocked(time.Now())
}

func (p *Pool) decayLocked(now time.Time) {
	dt := now.Sub(p.lastUpdate)
	if dt <= 0 {
		return
	}
	p.rate *= math.Pow(0.5, float64(dt)/float64(rateHalfLife))
	p.lastUpdate = now
}

// desiredLocked returns the pool size that would serve the current rate
// at target utilization.
func (p *Pool) desiredLocked() int {
	d := int(math.Ceil(p.rate / (p.cfg.TaskThroughput * p.cfg.TargetUtilization)))
	if d < p.cfg.MinTasks {
		d = p.cfg.MinTasks
	}
	return d
}

func (p *Pool) maybeResizeLocked(now time.Time) {
	desired := p.desiredLocked()
	dir := 0
	switch {
	case desired > p.tasks:
		dir = 1
	case desired < p.tasks:
		dir = -1
	}
	if dir == 0 {
		p.pendingDir = 0
		return
	}
	if dir != p.pendingDir {
		p.pendingDir = dir
		p.pendingSince = now
		return
	}
	if now.Sub(p.pendingSince) < p.cfg.ReactionDelay {
		return
	}
	// Resize, bounded by the step factor.
	next := desired
	if dir > 0 {
		max := int(math.Ceil(float64(p.tasks) * p.cfg.MaxStepFactor))
		if next > max {
			next = max
		}
	} else {
		min := int(math.Floor(float64(p.tasks) / p.cfg.MaxStepFactor))
		if next < min {
			next = min
		}
		if next < p.cfg.MinTasks {
			next = p.cfg.MinTasks
		}
	}
	dirLabel := "up"
	if dir < 0 {
		dirLabel = "down"
	}
	// Each resize happened only after the reaction delay elapsed, so
	// this counter also counts reaction-delay expiry events.
	p.resizes.With(p.cfg.Name, dirLabel).Inc()
	p.tasks = next
	p.lastResize = now
	p.pendingDir = 0
}

// Tasks returns the current pool size.
func (p *Pool) Tasks() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.decayLocked(time.Now())
	p.maybeResizeLocked(time.Now())
	return p.tasks
}

// Utilization returns the current load as a fraction of pool capacity
// (may exceed 1 during spikes before scale-up).
func (p *Pool) Utilization() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.decayLocked(time.Now())
	return p.rate / (float64(p.tasks) * p.cfg.TaskThroughput)
}

// QueuePenalty returns the extra per-operation latency implied by the
// current utilization, from the M/M/1-style queueing curve
// base * u/(1-u) clamped at 50x base. Components add this to their
// service time so that under-provisioned intervals (before the
// autoscaler reacts) exhibit the p99 growth the paper reports.
func (p *Pool) QueuePenalty(base time.Duration) time.Duration {
	u := p.Utilization()
	if u <= 0 {
		return 0
	}
	if u >= 0.98 {
		return 50 * base
	}
	f := u / (1 - u)
	if f > 50 {
		f = 50
	}
	return time.Duration(float64(base) * f)
}
