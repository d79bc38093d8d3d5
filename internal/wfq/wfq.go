// Package wfq implements the fair-CPU-share scheduler Firestore uses in
// its Backend tasks, keyed by database ID (§IV-C): a weighted-fair-queue
// of work items executed by a fixed pool of workers, so one database's
// expensive traffic cannot starve other databases of CPU. A FIFO mode
// exists for the Fig. 11 ablation ("fair CPU scheduling enabled or
// disabled"). The package also provides the two §VI emergency tools:
// per-database in-flight limits and queue-depth load shedding.
//
// CPU consumption is simulated: each task declares a Cost and a worker
// "executes" it by holding a worker slot for that duration before (and
// while) running the task body. This preserves exactly the property the
// paper's experiment measures — queueing delay under contention for a
// fixed CPU capacity.
package wfq

import (
	"container/heap"
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"firestore/internal/keyviz"
	"firestore/internal/obs"
	"firestore/internal/status"
)

// Errors returned by Submit, classified with canonical status codes:
// shed load and in-flight caps are ResourceExhausted (retry with
// backoff), a closed scheduler is Unavailable, and work whose context
// is already done is rejected DeadlineExceeded before burning CPU.
var (
	// ErrOverloaded reports queue-depth load shedding.
	ErrOverloaded = status.New(status.ResourceExhausted, "wfq", "overloaded, request shed")
	// ErrInFlightLimit reports the per-database in-flight cap.
	ErrInFlightLimit = status.New(status.ResourceExhausted, "wfq", "per-database in-flight limit reached")
	// ErrClosed reports submission to a stopped scheduler.
	ErrClosed = status.New(status.Unavailable, "wfq", "scheduler closed")
)

// Mode selects the scheduling discipline.
type Mode int

const (
	// Fair is weighted fair queueing by key (database ID).
	Fair Mode = iota
	// FIFO is strict arrival order (the isolation ablation).
	FIFO
)

// Config tunes a Scheduler.
type Config struct {
	// Workers is the number of concurrent worker slots (CPU capacity).
	// Defaults to 4.
	Workers int
	// Mode selects Fair (default) or FIFO.
	Mode Mode
	// MaxQueue sheds load when more than this many tasks are queued.
	// Zero disables shedding.
	MaxQueue int
	// DefaultWeight is the fair-share weight for keys without an
	// explicit weight. Defaults to 1.
	DefaultWeight float64
	// Obs receives scheduler metrics: per-database shed/expired/
	// dispatched counters, queue-wait histograms, and queue gauges.
	Obs *obs.Registry
	// KeyViz, when set, receives shed events (queue-depth and in-flight
	// rejections) on the keyspace timeline so noisy-neighbor shedding can
	// be correlated with tablet/range heat.
	KeyViz *keyviz.Collector
}

// task is one queued work item.
type task struct {
	ctx      context.Context
	key      string
	cost     time.Duration
	fn       func()
	vft      float64 // virtual finish time (Fair)
	seq      int64   // arrival order (FIFO + tie break)
	enqueued time.Time
	done     chan struct{}
	rejected error
}

// Scheduler dispatches submitted tasks to a fixed worker pool in fair or
// FIFO order.
type Scheduler struct {
	cfg Config

	mu       sync.Mutex
	cond     *sync.Cond
	queue    taskHeap
	closed   bool
	seq      int64
	vtime    float64 // global virtual time (max dispatched vft)
	lastVFT  map[string]float64
	weights  map[string]float64
	inflight map[string]int
	limits   map[string]int
	// accounted accumulates the simulated CPU cost actually dispatched
	// per key (shed or expired work is not charged), so operators can see
	// how much capacity e.g. a database's batch traffic consumed.
	accounted map[string]time.Duration
	queued    int
	queuedBy  map[string]int

	// Per-key task outcomes, {db=key}; Snapshot reads them back.
	dispatched, shed, limited, expired *obs.CounterVec
	queueWait                          *obs.HistogramVec

	wg sync.WaitGroup
}

// New starts a scheduler with cfg.
func New(cfg Config) *Scheduler {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.DefaultWeight <= 0 {
		cfg.DefaultWeight = 1
	}
	reg := obs.OrNew(cfg.Obs)
	s := &Scheduler{
		cfg:        cfg,
		lastVFT:    map[string]float64{},
		weights:    map[string]float64{},
		inflight:   map[string]int{},
		limits:     map[string]int{},
		accounted:  map[string]time.Duration{},
		queuedBy:   map[string]int{},
		dispatched: reg.CounterVec("wfq.dispatched", "db"),
		shed:       reg.CounterVec("wfq.shed", "db"),
		limited:    reg.CounterVec("wfq.inflight_limited", "db"),
		expired:    reg.CounterVec("wfq.expired", "db"),
		queueWait:  reg.HistogramVec("wfq.queue_wait", "db"),
	}
	s.cond = sync.NewCond(&s.mu)
	reg.GaugeFunc("wfq.queue_depth", nil, func() float64 {
		return float64(s.QueueDepth())
	})
	reg.GaugeFunc("wfq.virtual_time", nil, func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.vtime
	})
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// SetWeight sets the fair-share weight for key (higher = more capacity).
func (s *Scheduler) SetWeight(key string, w float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if w <= 0 {
		delete(s.weights, key)
		return
	}
	s.weights[key] = w
}

// SetInFlightLimit caps concurrent in-flight tasks for key — the paper's
// "low-tech manual tool that limits the number of per-task in-flight RPCs
// for a given database" (§VI). Zero removes the limit.
func (s *Scheduler) SetInFlightLimit(key string, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n <= 0 {
		delete(s.limits, key)
		return
	}
	s.limits[key] = n
}

// AccountedCost returns the total simulated CPU cost dispatched for key
// since the scheduler started. Shed or expired tasks are not charged.
func (s *Scheduler) AccountedCost(key string) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.accounted[key]
}

// QueueDepth returns the number of tasks waiting for a worker.
func (s *Scheduler) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued
}

// Close stops the scheduler after draining queued tasks. Subsequent
// Submits fail with ErrClosed.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
	s.wg.Wait()
}

// Submit enqueues fn with the given simulated CPU cost under key and
// blocks until it has run, it is shed, or ctx is done. The returned error
// is nil if fn ran. Work whose context is already cancelled or past its
// deadline is rejected DeadlineExceeded without consuming a queue slot,
// and re-checked at dispatch so expired work never burns a worker.
func (s *Scheduler) Submit(ctx context.Context, key string, cost time.Duration, fn func()) error {
	if err := ctx.Err(); err != nil {
		s.expired.With(key).Inc()
		return status.FromContext("wfq", err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if s.cfg.MaxQueue > 0 && s.queued >= s.cfg.MaxQueue {
		depth := s.queued
		s.mu.Unlock()
		s.shed.With(key).Inc()
		s.cfg.KeyViz.Record(keyviz.EvShed, keyviz.Event{
			Source: "wfq", Key: key,
			Detail: fmt.Sprintf("queue depth %d >= %d", depth, s.cfg.MaxQueue),
		})
		return ErrOverloaded
	}
	if limit, ok := s.limits[key]; ok && s.inflight[key] >= limit {
		inflight := s.inflight[key]
		s.mu.Unlock()
		s.limited.With(key).Inc()
		s.cfg.KeyViz.Record(keyviz.EvShed, keyviz.Event{
			Source: "wfq", Key: key,
			Detail: fmt.Sprintf("in-flight %d >= limit %d", inflight, limit),
		})
		return ErrInFlightLimit
	}
	s.seq++
	t := &task{ctx: ctx, key: key, cost: cost, fn: fn, seq: s.seq, enqueued: time.Now(), done: make(chan struct{})}
	if s.cfg.Mode == Fair {
		w := s.cfg.DefaultWeight
		if ww, ok := s.weights[key]; ok {
			w = ww
		}
		start := s.vtime
		if last := s.lastVFT[key]; last > start {
			start = last
		}
		t.vft = start + float64(cost)/w
		s.lastVFT[key] = t.vft
	}
	s.inflight[key]++
	s.queued++
	s.queuedBy[key]++
	heap.Push(&s.queue, t)
	s.mu.Unlock()
	s.cond.Signal()

	select {
	case <-t.done:
		return t.rejected
	case <-ctx.Done():
		// The task will not run: the worker sees the done context when
		// it pops the task and skips it without burning its cost.
		return status.FromContext("wfq", ctx.Err())
	}
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for s.queue.Len() == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.queue.Len() == 0 && s.closed {
			s.mu.Unlock()
			return
		}
		t := heap.Pop(&s.queue).(*task)
		s.queued--
		s.queuedBy[t.key]--
		if s.queuedBy[t.key] <= 0 {
			delete(s.queuedBy, t.key)
		}
		if s.cfg.Mode == Fair && t.vft > s.vtime {
			s.vtime = t.vft
		}
		s.mu.Unlock()

		s.queueWait.With(t.key).Record(time.Since(t.enqueued))

		// Deadline enforcement at dispatch: work that expired while
		// queued is dropped without burning CPU (the caller already got
		// DeadlineExceeded, or gets it via rejected below).
		ran := false
		if err := t.ctx.Err(); err != nil {
			t.rejected = status.FromContext("wfq", err)
			s.expired.With(t.key).Inc()
		} else {
			if t.cost > 0 {
				time.Sleep(t.cost) // hold the worker slot: simulated CPU burn
			}
			if t.fn != nil {
				t.fn()
			}
			ran = true
			s.dispatched.With(t.key).Inc()
		}

		s.mu.Lock()
		if ran {
			s.accounted[t.key] += t.cost
		}
		s.inflight[t.key]--
		if s.inflight[t.key] <= 0 {
			delete(s.inflight, t.key)
		}
		s.mu.Unlock()
		close(t.done)
	}
}

// KeyStats is one database's scheduler state in a Snapshot.
type KeyStats struct {
	Key        string        `json:"key"`
	Queued     int           `json:"queued"`
	InFlight   int           `json:"in_flight"`
	Weight     float64       `json:"weight"`
	Limit      int           `json:"limit,omitempty"`
	LastVFT    float64       `json:"last_vft"`
	Accounted  time.Duration `json:"accounted_cost_ns"`
	Dispatched int64         `json:"dispatched"`
	Shed       int64         `json:"shed"`
	Expired    int64         `json:"expired"`
}

// Stats is a point-in-time view of the scheduler for /debug/schedz.
type Stats struct {
	Mode        string     `json:"mode"`
	Workers     int        `json:"workers"`
	Queued      int        `json:"queued"`
	VirtualTime float64    `json:"virtual_time"`
	Keys        []KeyStats `json:"keys"`
}

// Snapshot reports global and per-key scheduler state, keys sorted. The
// outcome counts are read from the instruments; Shed is queue-depth
// shedding plus in-flight limiting.
func (s *Scheduler) Snapshot() Stats {
	byKey := map[string]*KeyStats{}
	key := func(k string) *KeyStats {
		ks := byKey[k]
		if ks == nil {
			ks = &KeyStats{Key: k}
			byKey[k] = ks
		}
		return ks
	}
	s.dispatched.Each(func(v []string, c *obs.Counter) { key(v[0]).Dispatched = c.Value() })
	s.shed.Each(func(v []string, c *obs.Counter) { key(v[0]).Shed += c.Value() })
	s.limited.Each(func(v []string, c *obs.Counter) { key(v[0]).Shed += c.Value() })
	s.expired.Each(func(v []string, c *obs.Counter) { key(v[0]).Expired = c.Value() })

	s.mu.Lock()
	defer s.mu.Unlock()
	mode := "fair"
	if s.cfg.Mode == FIFO {
		mode = "fifo"
	}
	st := Stats{Mode: mode, Workers: s.cfg.Workers, Queued: s.queued, VirtualTime: s.vtime}
	for k := range s.queuedBy {
		key(k)
	}
	for k := range s.inflight {
		key(k)
	}
	for k := range s.lastVFT {
		key(k)
	}
	for k, ks := range byKey {
		ks.Queued, ks.InFlight, ks.Limit = s.queuedBy[k], s.inflight[k], s.limits[k]
		ks.LastVFT, ks.Accounted = s.lastVFT[k], s.accounted[k]
		ks.Weight = s.cfg.DefaultWeight
		if w, ok := s.weights[k]; ok {
			ks.Weight = w
		}
		st.Keys = append(st.Keys, *ks)
	}
	sort.Slice(st.Keys, func(i, j int) bool { return st.Keys[i].Key < st.Keys[j].Key })
	return st
}

// taskHeap orders by virtual finish time (Fair) falling back to arrival
// sequence; in FIFO mode vft is zero for every task so sequence decides.
type taskHeap []*task

func (h taskHeap) Len() int { return len(h) }
func (h taskHeap) Less(i, j int) bool {
	if h[i].vft != h[j].vft {
		return h[i].vft < h[j].vft
	}
	return h[i].seq < h[j].seq
}
func (h taskHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x any)   { *h = append(*h, x.(*task)) }
func (h *taskHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}
