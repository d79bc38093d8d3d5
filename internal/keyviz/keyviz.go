// Package keyviz is the keyspace heatmap telemetry subsystem ("Key
// Visualizer"): every spanner read/commit, rtcache deliver, and storage
// flush/compaction is sampled into per-tablet (and per-rtcache-range)
// time-bucketed cells — ops, bytes, a p99-ish latency sketch, lock
// waits, and fault hits — held in a bounded ring of time windows.
// Production Firestore/Bigtable operators lean on exactly this tool to
// turn "the cluster is slow" into "tablet 7 is hot since 12:03, split
// it": the paper's load-based splitting (§IV-D1), Slicer rebalancing
// (§IV-D4), and WFQ noisy-tenant isolation (§IV-C) are all invisible
// without per-range load attribution.
//
// Hot-path discipline mirrors internal/fault: a disarmed sample site — a
// nil collector — costs one nil check (Collector.Armed), and armed samples
// touch only per-cell atomics — cells are the shards, found by lock-free
// open addressing in a fixed table per window, so two tablets never
// contend on one counter. Time comes from the injected truetime.Clock,
// never the wall clock, so simulated runs bucket deterministically.
//
// On top of the collector sit the hotspot detector (scoring cells
// against their same-source neighbors, detector.go), the event log
// correlating splits, merges, rebalances, flushes, compactions, WFQ
// sheds, and injected faults onto the heatmap timeline (events.go), and
// the SVG/terminal renderers behind /debug/keyvizz and `fsctl keyviz`
// (render.go).
package keyviz

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"firestore/internal/truetime"
)

// Source identifies the keyspace dimension a cell lives on.
type Source uint8

const (
	// SrcTablet cells are keyed by spanner tablet ID.
	SrcTablet Source = iota + 1
	// SrcRange cells are keyed by rtcache name-range ID.
	SrcRange
)

// String returns the JSON/wire name of the source.
func (s Source) String() string {
	switch s {
	case SrcTablet:
		return "tablet"
	case SrcRange:
		return "range"
	default:
		return "unknown"
	}
}

// Op classifies one sampled operation within a cell.
type Op uint8

const (
	// OpRead is a single-row spanner read (snapshot or locked).
	OpRead Op = iota
	// OpScan is one tablet's contribution to a range scan.
	OpScan
	// OpCommit is a commit apply on one participant tablet.
	OpCommit
	// OpDeliver is an rtcache mutation batch resolved on a range.
	OpDeliver
	// OpLockWait is a lock acquisition (latency = wait time).
	OpLockWait
	// OpFault is an injected fault that surfaced on this cell.
	OpFault
	numOps = int(OpFault) + 1
)

// Tuning shared by the collector and its tests.
const (
	// cellsPerWindow is the fixed cell-table size per window (open
	// addressing; power of two). Far above the tablet+range count of any
	// single region; overflow is counted, not silently dropped.
	cellsPerWindow = 128
	// maxProbe bounds the open-addressing probe chain.
	maxProbe = 32
	// latBuckets is the log2-microsecond latency sketch width:
	// bucket i covers [2^(i-1), 2^i) µs, the last bucket is a catch-all.
	latBuckets = 20

	// windowDur is the time-bucket width.
	windowDur = time.Second
	// ringLen is the ring length (how much history is retained).
	ringLen = 32
	// eventCap bounds the event log; older events are dropped first.
	eventCap = 512
)

// cell is one (source, shard) accumulator inside one time window. All
// fields are atomics: samplers never take a lock.
type cell struct {
	// key is the packed (source, shard) identity plus one; zero means
	// the slot is free. Claimed once by CAS, never cleared while the
	// window is live.
	key    atomic.Uint64
	ops    [numOps]atomic.Int64
	bytes  atomic.Int64
	lat    [latBuckets]atomic.Int64
	latMax atomic.Int64
}

func packKey(src Source, shard uint64) uint64 {
	return (uint64(src)<<56 | shard&(1<<56-1)) + 1
}

func unpackKey(p uint64) (Source, uint64) {
	p--
	return Source(p >> 56), p & (1<<56 - 1)
}

// window is one time bucket of the ring.
type window struct {
	start, end truetime.Timestamp
	cells      [cellsPerWindow]cell
	overflow   atomic.Int64 // samples that found no free cell
}

// reset recycles the window for reuse as the new current bucket.
func (w *window) reset(start, end truetime.Timestamp) {
	w.start, w.end = start, end
	for i := range w.cells {
		c := &w.cells[i]
		c.key.Store(0)
		for j := range c.ops {
			c.ops[j].Store(0)
		}
		c.bytes.Store(0)
		for j := range c.lat {
			c.lat[j].Store(0)
		}
		c.latMax.Store(0)
	}
	w.overflow.Store(0)
}

// cellFor claims or finds the cell for packed key k, or nil when the
// probe chain is exhausted (table full).
func (w *window) cellFor(k uint64) *cell {
	// Fibonacci hashing spreads sequential tablet IDs across the table.
	i := (k * 0x9E3779B97F4A7C15) >> (64 - 7) // log2(cellsPerWindow) == 7
	for p := 0; p < maxProbe; p++ {
		c := &w.cells[(i+uint64(p))%cellsPerWindow]
		got := c.key.Load()
		if got == k {
			return c
		}
		if got == 0 && c.key.CompareAndSwap(0, k) {
			return c
		}
		if c.key.Load() == k { // lost the CAS to ourselves-by-proxy
			return c
		}
	}
	return nil
}

// Collector is the keyspace/time heat collector. The zero value is not
// usable; call New. A nil *Collector is keyviz off: it is safe to sample
// against (no-op), so layers keep a plain field without nil checks at
// every site.
type Collector struct {
	clock truetime.Clock

	// cur is the active window, published by rotation.
	cur atomic.Pointer[window]

	mu      sync.Mutex
	ring    []*window // oldest first; last is current
	events  []Event   // oldest first, bounded by eventCap
	dropped atomic.Int64
}

// New builds a collector, armed, on the region's TrueTime clock.
func New(clock truetime.Clock) *Collector {
	return &Collector{clock: clock}
}

// Armed reports whether sampling is active: whether c is non-nil.
// Instrumentation sites use it to gate any extra work (an extra clock
// read, a tablet resolution) beyond the sample itself.
func (c *Collector) Armed() bool {
	return c != nil
}

// Sample records n operations of kind op on (src, shard), with optional
// payload bytes and an optional latency observation (zero to skip).
// Disarmed cost is one nil check; armed cost is a clock read plus a
// handful of per-cell atomic adds.
func (c *Collector) Sample(src Source, shard uint64, op Op, n, bytes int64, lat time.Duration) {
	if c == nil {
		return
	}
	c.sampleAt(c.clock.Now().Latest, src, shard, op, n, bytes, lat)
}

// SampleAt is Sample with a timestamp the caller already read from the
// same clock, saving the duplicate clock read on paths that have one in
// hand (tablet load accounting).
func (c *Collector) SampleAt(now truetime.Timestamp, src Source, shard uint64, op Op, n, bytes int64, lat time.Duration) {
	if c == nil {
		return
	}
	c.sampleAt(now, src, shard, op, n, bytes, lat)
}

func (c *Collector) sampleAt(now truetime.Timestamp, src Source, shard uint64, op Op, n, bytes int64, lat time.Duration) {
	w := c.cur.Load()
	if w == nil || now >= w.end {
		w = c.rotate(now)
	}
	cl := w.cellFor(packKey(src, shard))
	if cl == nil {
		w.overflow.Add(1)
		c.dropped.Add(1)
		return
	}
	if n != 0 {
		cl.ops[op].Add(n)
	}
	if bytes > 0 {
		cl.bytes.Add(bytes)
	}
	if lat > 0 {
		us := uint64(lat / time.Microsecond)
		b := bits.Len64(us)
		if b >= latBuckets {
			b = latBuckets - 1
		}
		cl.lat[b].Add(1)
		for {
			m := cl.latMax.Load()
			if int64(lat) <= m || cl.latMax.CompareAndSwap(m, int64(lat)) {
				break
			}
		}
	}
}

// rotate advances the ring so the current window covers now.
func (c *Collector) rotate(now truetime.Timestamp) *window {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.cur.Load()
	if w != nil && now < w.end {
		return w // another sampler rotated first
	}
	start := now
	if w != nil && now.Sub(w.end) < windowDur {
		start = w.end // contiguous buckets across small idle gaps
	}
	var next *window
	if len(c.ring) >= ringLen {
		next = c.ring[0]
		c.ring = append(c.ring[:0], c.ring[1:]...)
		next.reset(start, start.Add(windowDur))
	} else {
		next = &window{start: start, end: start.Add(windowDur)}
	}
	c.ring = append(c.ring, next)
	c.cur.Store(next)
	return next
}

// Heat returns the total ops recorded for (src, shard) in the current
// and previous windows — the "recent heat" annotation number.
func (c *Collector) Heat(src Source, shard uint64) int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum int64
	k := packKey(src, shard)
	for i := len(c.ring) - 1; i >= 0 && i >= len(c.ring)-2; i-- {
		sum += c.ring[i].opsOf(k)
	}
	return sum
}

// opsOf sums the countable ops (reads, scans, commits, delivers) of the
// cell keyed k, or 0 when absent.
func (w *window) opsOf(k uint64) int64 {
	i := (k * 0x9E3779B97F4A7C15) >> (64 - 7)
	for p := 0; p < maxProbe; p++ {
		c := &w.cells[(i+uint64(p))%cellsPerWindow]
		got := c.key.Load()
		if got == 0 {
			return 0
		}
		if got == k {
			return c.ops[OpRead].Load() + c.ops[OpScan].Load() +
				c.ops[OpCommit].Load() + c.ops[OpDeliver].Load()
		}
	}
	return 0
}
