package keyviz

import (
	"sort"
	"time"

	"firestore/internal/truetime"
)

// CellSnap is one cell of one window, scored against its neighbors.
type CellSnap struct {
	Source    string `json:"source"`
	Shard     uint64 `json:"shard"`
	Reads     int64  `json:"reads,omitempty"`
	Scans     int64  `json:"scans,omitempty"`
	Commits   int64  `json:"commits,omitempty"`
	Delivers  int64  `json:"delivers,omitempty"`
	LockWaits int64  `json:"lock_waits,omitempty"`
	Faults    int64  `json:"faults,omitempty"`
	// Ops is the countable total (reads+scans+commits+delivers) — the
	// heat value rendered by the heatmap.
	Ops   int64 `json:"ops"`
	Bytes int64 `json:"bytes,omitempty"`
	// P99Micros is the sketch's 99th-percentile latency estimate (upper
	// bucket bound, clamped to the observed max); MaxMicros the exact
	// observed maximum.
	P99Micros int64 `json:"p99_us,omitempty"`
	MaxMicros int64 `json:"max_us,omitempty"`
	// Score is the hotspot score: this cell's ops relative to the mean
	// ops of the *other* cells of the same source in the same window. A
	// lone cell scores its own ops, so "one tablet does everything"
	// still ranks.
	Score float64 `json:"score"`
}

// WindowSnap is one time bucket.
type WindowSnap struct {
	Start truetime.Timestamp `json:"start"`
	End   truetime.Timestamp `json:"end"`
	// Cells are sorted by source then shard.
	Cells []CellSnap `json:"cells"`
	// Overflow counts samples dropped because the cell table was full.
	Overflow int64 `json:"overflow,omitempty"`
}

// Hotspot is one detector finding: a cell whose heat stands out from
// its neighbors.
type Hotspot struct {
	Start  truetime.Timestamp `json:"start"`
	Source string             `json:"source"`
	Shard  uint64             `json:"shard"`
	Ops    int64              `json:"ops"`
	Score  float64            `json:"score"`
}

// Snapshot is the full collector state: the window ring, the event
// timeline, and the detector's top findings. It round-trips through
// JSON for /debug/keyvizz and fsctl keyviz.
type Snapshot struct {
	Enabled      bool         `json:"enabled"`
	WindowMillis int64        `json:"window_ms"`
	Windows      []WindowSnap `json:"windows"` // oldest first
	Events       []Event      `json:"events"`  // oldest first
	Hotspots     []Hotspot    `json:"hotspots"`
	Dropped      int64        `json:"dropped,omitempty"`
}

// maxHotspots bounds the detector's finding list in a snapshot.
const maxHotspots = 16

// Snapshot copies the ring and timeline and runs the detector.
func (c *Collector) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	s := Snapshot{
		Enabled:      true,
		WindowMillis: int64(windowDur / time.Millisecond),
		Dropped:      c.dropped.Load(),
	}
	c.mu.Lock()
	ring := append([]*window(nil), c.ring...)
	s.Events = append([]Event(nil), c.events...)
	c.mu.Unlock()

	var spots []Hotspot
	for _, w := range ring {
		ws := WindowSnap{Start: w.start, End: w.end, Overflow: w.overflow.Load()}
		for i := range w.cells {
			cl := &w.cells[i]
			k := cl.key.Load()
			if k == 0 {
				continue
			}
			src, shard := unpackKey(k)
			cs := CellSnap{
				Source:    src.String(),
				Shard:     shard,
				Reads:     cl.ops[OpRead].Load(),
				Scans:     cl.ops[OpScan].Load(),
				Commits:   cl.ops[OpCommit].Load(),
				Delivers:  cl.ops[OpDeliver].Load(),
				LockWaits: cl.ops[OpLockWait].Load(),
				Faults:    cl.ops[OpFault].Load(),
				Bytes:     cl.bytes.Load(),
			}
			cs.Ops = cs.Reads + cs.Scans + cs.Commits + cs.Delivers
			cs.P99Micros, cs.MaxMicros = sketchP99(cl)
			ws.Cells = append(ws.Cells, cs)
		}
		sort.Slice(ws.Cells, func(i, j int) bool {
			if ws.Cells[i].Source != ws.Cells[j].Source {
				return ws.Cells[i].Source < ws.Cells[j].Source
			}
			return ws.Cells[i].Shard < ws.Cells[j].Shard
		})
		scoreWindow(ws.Cells)
		for _, cs := range ws.Cells {
			if cs.Ops > 0 {
				spots = append(spots, Hotspot{
					Start: ws.Start, Source: cs.Source, Shard: cs.Shard,
					Ops: cs.Ops, Score: cs.Score,
				})
			}
		}
		s.Windows = append(s.Windows, ws)
	}
	sort.Slice(spots, func(i, j int) bool {
		if spots[i].Score != spots[j].Score {
			return spots[i].Score > spots[j].Score
		}
		return spots[i].Ops > spots[j].Ops
	})
	if len(spots) > maxHotspots {
		spots = spots[:maxHotspots]
	}
	s.Hotspots = spots
	return s
}

// scoreWindow fills Score on every cell: ops relative to the mean of
// the other cells of the same source in this window. Scores >> 1 mean
// the cell dominates its neighbors — the split/rebalance signal.
func scoreWindow(cells []CellSnap) {
	totals := map[string]int64{}
	counts := map[string]int{}
	for _, cs := range cells {
		totals[cs.Source] += cs.Ops
		counts[cs.Source]++
	}
	for i := range cells {
		cs := &cells[i]
		n := counts[cs.Source]
		if n <= 1 {
			// No neighbors: the cell's own heat is its score, so a
			// single dominating cell still ranks above quiet ones.
			cs.Score = float64(cs.Ops)
			continue
		}
		others := float64(totals[cs.Source]-cs.Ops) / float64(n-1)
		if others < 1 {
			others = 1
		}
		cs.Score = float64(cs.Ops) / others
	}
}

// sketchP99 estimates p99 from the log2-µs bucket counts, clamping to
// the exact observed max.
func sketchP99(cl *cell) (p99, max int64) {
	max = cl.latMax.Load() / int64(time.Microsecond)
	var counts [latBuckets]int64
	var total int64
	for i := range counts {
		counts[i] = cl.lat[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0, max
	}
	target := total - total/100 // rank of the 99th percentile
	var cum int64
	for i, n := range counts {
		cum += n
		if cum >= target {
			p99 = int64(1) << uint(i) // upper bound of bucket i
			if max > 0 && p99 > max {
				p99 = max
			}
			return p99, max
		}
	}
	return max, max
}

// TopShard returns the hottest shard of src in the window covering ts
// (or the nearest window when ts falls in an idle gap), and whether any
// heat was recorded there at all. Chaos scenarios use it to assert the
// collector attributed a fault to the range the schedule targeted.
func (c *Collector) TopShard(src Source, ts truetime.Timestamp) (shard uint64, ops int64, ok bool) {
	if c == nil {
		return 0, 0, false
	}
	c.mu.Lock()
	ring := append([]*window(nil), c.ring...)
	c.mu.Unlock()
	var w *window
	var best time.Duration
	for _, cand := range ring {
		if ts >= cand.start && ts < cand.end {
			w = cand
			break
		}
		// Track the nearest window as a fallback for gap timestamps.
		d := ts.Sub(cand.end)
		if d < 0 {
			d = cand.start.Sub(ts)
		}
		if w == nil || d < best {
			w, best = cand, d
		}
	}
	if w == nil {
		return 0, 0, false
	}
	for i := range w.cells {
		cl := &w.cells[i]
		k := cl.key.Load()
		if k == 0 {
			continue
		}
		s, sh := unpackKey(k)
		if s != src {
			continue
		}
		n := cl.ops[OpRead].Load() + cl.ops[OpScan].Load() +
			cl.ops[OpCommit].Load() + cl.ops[OpDeliver].Load()
		if n > ops {
			shard, ops, ok = sh, n, true
		}
	}
	return shard, ops, ok
}
