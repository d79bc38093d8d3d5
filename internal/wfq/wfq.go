// Package wfq implements the fair-CPU-share scheduler Firestore uses in
// its Backend tasks, keyed by database ID (§IV-C): a weighted-fair-queue
// in front of a fixed number of slots (CPU capacity), so one database's
// expensive traffic cannot starve other databases of CPU. A FIFO mode
// exists for the Fig. 11 ablation ("fair CPU scheduling enabled or
// disabled"). The package also provides the two §VI emergency tools:
// per-database in-flight limits and queue-depth load shedding.
//
// The scheduler is a slot ledger with no goroutines of its own: Submit
// runs the task body on the submitting goroutine once that goroutine
// holds a slot. A free slot with nobody queued is taken at once;
// otherwise the task queues, and the task that frees a slot grants it to
// the queue's head (least virtual finish time, or arrival order in FIFO).
//
// The scheduler prices work but never burns it: a task's cost orders it
// (its virtual finish time) and is charged to its key (AccountedCost),
// and the task body holds its slot for as long as it runs. A caller
// modelling CPU time sleeps it inside the body, on its own clock; the
// queueing delay under contention for that fixed capacity is what the
// paper's experiment measures.
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
// is already done is rejected DeadlineExceeded before it runs.
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
	// Workers is the number of slots, tasks that may run at once (CPU
	// capacity). Defaults to 4.
	Workers int
	// Mode selects Fair (default) or FIFO.
	Mode Mode
	// MaxQueue sheds load when more than this many tasks are queued.
	// Zero disables shedding.
	MaxQueue int
	// Obs receives scheduler metrics: per-database shed/expired/
	// dispatched counters, queue-wait histograms, and queue gauges.
	Obs *obs.Registry
	// KeyViz, when set, receives shed events (queue-depth and in-flight
	// rejections) on the keyspace timeline so noisy-neighbor shedding can
	// be correlated with tablet/range heat.
	KeyViz *keyviz.Collector
}

// task is one queued waiter; its body stays on the submitter's stack.
type task struct {
	key   string
	vft   float64       // virtual finish time (Fair)
	seq   int64         // arrival order (FIFO + tie break)
	index int           // position in the queue, -1 once granted or removed
	ready chan struct{} // closed when the task is granted a slot
}

// Scheduler grants its slots to submitted tasks in fair or FIFO order.
type Scheduler struct {
	cfg Config

	mu       sync.Mutex
	queue    taskHeap
	running  int            // slots held
	slots    sync.WaitGroup // one count per slot held, for Close
	closed   bool
	seq      int64
	vtime    float64 // global virtual time (max dispatched vft)
	lastVFT  map[string]float64
	weights  map[string]float64
	inflight map[string]int
	limits   map[string]int
	// accounted accumulates the cost actually dispatched per key (shed
	// or expired work is not charged), so operators can see how much
	// capacity e.g. a database's batch traffic consumed.
	accounted map[string]time.Duration

	// Per-key task outcomes, {db=key}; Snapshot reads them back.
	dispatched, shed, limited, expired *obs.CounterVec
	queueWait                          *obs.HistogramVec
}

// defaultWeight is the fair-share weight of a key without an explicit
// weight (SetWeight).
const defaultWeight = 1.0

// New returns a scheduler with cfg.
func New(cfg Config) *Scheduler {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	reg := obs.OrNew(cfg.Obs)
	s := &Scheduler{
		cfg:        cfg,
		lastVFT:    map[string]float64{},
		weights:    map[string]float64{},
		inflight:   map[string]int{},
		limits:     map[string]int{},
		accounted:  map[string]time.Duration{},
		dispatched: reg.CounterVec("wfq.dispatched", "db"),
		shed:       reg.CounterVec("wfq.shed", "db"),
		limited:    reg.CounterVec("wfq.inflight_limited", "db"),
		expired:    reg.CounterVec("wfq.expired", "db"),
		queueWait:  reg.HistogramVec("wfq.queue_wait", "db"),
	}
	reg.GaugeFunc("wfq.queue_depth", nil, func() float64 {
		return float64(s.QueueDepth())
	})
	reg.GaugeFunc("wfq.virtual_time", nil, func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.vtime
	})
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

// AccountedCost returns the total cost dispatched for key since the
// scheduler started. Shed or expired tasks are not charged.
func (s *Scheduler) AccountedCost(key string) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.accounted[key]
}

// QueueDepth returns the number of tasks waiting for a slot.
func (s *Scheduler) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queue.Len()
}

// Close stops the scheduler: queued tasks are still granted slots, and
// Close returns once every slot is free. Subsequent Submits fail with
// ErrClosed.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.slots.Wait()
}

// Submit runs fn, priced at cost, under key on the calling goroutine
// once it holds a slot, and returns after fn has returned; a task that is
// shed, or whose ctx is done while it waits, returns without running. The
// returned error is nil if fn ran. Work whose context is already
// cancelled or past its deadline is rejected DeadlineExceeded without
// consuming a queue slot, and re-checked when a slot is granted so
// expired work never holds one. A panic in fn frees its slot and reaches
// the caller.
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
	if s.cfg.MaxQueue > 0 && s.queue.Len() >= s.cfg.MaxQueue {
		depth := s.queue.Len()
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
	var vft float64
	if s.cfg.Mode == Fair {
		w := defaultWeight
		if ww, ok := s.weights[key]; ok {
			w = ww
		}
		start := s.vtime
		if last := s.lastVFT[key]; last > start {
			start = last
		}
		vft = start + float64(cost)/w
		s.lastVFT[key] = vft
	}
	s.inflight[key]++
	if s.running < s.cfg.Workers && s.queue.Len() == 0 {
		s.startLocked(vft)
		s.mu.Unlock()
		s.queueWait.With(key).Record(0)
		return s.run(key, cost, fn)
	}
	t := &task{key: key, vft: vft, seq: s.seq, ready: make(chan struct{})}
	heap.Push(&s.queue, t)
	s.mu.Unlock()
	enqueued := time.Now()

	select {
	case <-t.ready:
	case <-ctx.Done():
		s.mu.Lock()
		if t.index >= 0 {
			heap.Remove(&s.queue, t.index)
			s.leaveLocked(key)
			s.mu.Unlock()
			s.expired.With(key).Inc()
			return status.FromContext("wfq", ctx.Err())
		}
		// The grant won the race: the slot is handed on below.
		s.mu.Unlock()
	}
	s.queueWait.With(key).Record(time.Since(enqueued))
	if err := ctx.Err(); err != nil {
		s.expired.With(key).Inc()
		s.release(key, 0)
		return status.FromContext("wfq", err)
	}
	return s.run(key, cost, fn)
}

// run runs fn in the slot the caller holds and frees the slot, charging
// cost to key, even if fn panics.
func (s *Scheduler) run(key string, cost time.Duration, fn func()) error {
	defer s.release(key, cost)
	s.dispatched.With(key).Inc()
	if fn != nil {
		fn()
	}
	return nil
}

// release frees one of key's slots, charges cost to key, and grants the
// freed slot to the queue's head. The grant is counted before the freed
// slot, so Close's count never touches zero while a task is queued.
func (s *Scheduler) release(key string, cost time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.accounted[key] += cost
	s.leaveLocked(key)
	s.running--
	for s.running < s.cfg.Workers && s.queue.Len() > 0 {
		t := heap.Pop(&s.queue).(*task)
		s.startLocked(t.vft)
		close(t.ready)
	}
	s.slots.Done()
}

// startLocked takes a slot for a task of virtual finish time vft.
func (s *Scheduler) startLocked(vft float64) {
	s.running++
	s.slots.Add(1)
	if vft > s.vtime {
		s.vtime = vft
	}
}

// leaveLocked counts one of key's tasks out of the scheduler.
func (s *Scheduler) leaveLocked(key string) {
	s.inflight[key]--
	if s.inflight[key] <= 0 {
		delete(s.inflight, key)
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
	st := Stats{Mode: mode, Workers: s.cfg.Workers, Queued: s.queue.Len(), VirtualTime: s.vtime}
	for _, t := range s.queue {
		key(t.key).Queued++
	}
	for k := range s.inflight {
		key(k)
	}
	for k := range s.lastVFT {
		key(k)
	}
	for k, ks := range byKey {
		ks.InFlight, ks.Limit = s.inflight[k], s.limits[k]
		ks.LastVFT, ks.Accounted = s.lastVFT[k], s.accounted[k]
		ks.Weight = defaultWeight
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
// Each task knows its index, so a cancelled waiter can leave.
type taskHeap []*task

func (h taskHeap) Len() int { return len(h) }
func (h taskHeap) Less(i, j int) bool {
	if h[i].vft != h[j].vft {
		return h[i].vft < h[j].vft
	}
	return h[i].seq < h[j].seq
}
func (h taskHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *taskHeap) Push(x any) {
	t := x.(*task)
	t.index = len(*h)
	*h = append(*h, t)
}
func (h *taskHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.index = -1
	*h = old[:n-1]
	return t
}
