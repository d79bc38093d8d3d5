package keyviz

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"firestore/internal/truetime"
)

func newTestCollector(t *testing.T) (*Collector, *truetime.Manual) {
	t.Helper()
	clock := truetime.NewManual(1000, 0)
	return New(clock), clock
}

func TestDisarmedAndNilAreNoOps(t *testing.T) {
	var nilC *Collector
	nilC.Sample(SrcTablet, 1, OpRead, 1, 0, 0)
	nilC.Record(EvSplit, Event{})
	if nilC.Armed() {
		t.Fatal("nil collector reports armed")
	}
	if s := nilC.Snapshot(); s.Enabled || len(s.Windows) != 0 {
		t.Fatal("nil snapshot not empty")
	}
}

func TestSampleAccumulatesAndWindowsRotate(t *testing.T) {
	c, clock := newTestCollector(t)
	c.Sample(SrcTablet, 1, OpRead, 3, 0, 0)
	c.Sample(SrcTablet, 1, OpCommit, 2, 128, 3*time.Millisecond)
	c.Sample(SrcTablet, 2, OpScan, 1, 0, 0)
	c.Sample(SrcRange, 0, OpDeliver, 4, 0, 0)
	c.Sample(SrcTablet, 1, OpLockWait, 1, 0, 500*time.Microsecond)
	c.Sample(SrcTablet, 1, OpFault, 1, 0, 0)

	clock.Advance(windowDur * 3 / 2) // next window
	c.Sample(SrcTablet, 2, OpRead, 7, 0, 0)

	s := c.Snapshot()
	if len(s.Windows) != 2 {
		t.Fatalf("want 2 windows, got %d", len(s.Windows))
	}
	w0 := s.Windows[0]
	if len(w0.Cells) != 3 {
		t.Fatalf("want 3 cells in first window, got %+v", w0.Cells)
	}
	var t1 *CellSnap
	for i := range w0.Cells {
		if w0.Cells[i].Source == "tablet" && w0.Cells[i].Shard == 1 {
			t1 = &w0.Cells[i]
		}
	}
	if t1 == nil {
		t.Fatal("tablet/1 cell missing")
	}
	if t1.Reads != 3 || t1.Commits != 2 || t1.Ops != 5 || t1.Bytes != 128 ||
		t1.LockWaits != 1 || t1.Faults != 1 {
		t.Fatalf("tablet/1 cell wrong: %+v", t1)
	}
	if t1.MaxMicros != 3000 {
		t.Fatalf("max latency: want 3000us, got %d", t1.MaxMicros)
	}
	if t1.P99Micros <= 0 || t1.P99Micros > 4096 {
		t.Fatalf("p99 sketch out of range: %d", t1.P99Micros)
	}
	if got := s.Windows[1].Cells[0]; got.Shard != 2 || got.Reads != 7 {
		t.Fatalf("second window wrong: %+v", got)
	}
}

func TestRingBoundedAndRecycled(t *testing.T) {
	c, clock := newTestCollector(t)
	for i := 0; i < ringLen+6; i++ {
		c.Sample(SrcTablet, uint64(i), OpRead, 1, 0, 0)
		clock.Advance(windowDur * 6 / 5)
	}
	s := c.Snapshot()
	if len(s.Windows) != ringLen {
		t.Fatalf("ring not bounded: %d windows", len(s.Windows))
	}
	// Oldest retained window must hold shard 6 (0-5 were recycled).
	if got := s.Windows[0].Cells[0].Shard; got != 6 {
		t.Fatalf("oldest window shard: want 6, got %d", got)
	}
}

func TestHotspotScoringAndTopShard(t *testing.T) {
	c, clock := newTestCollector(t)
	at := clock.Now().Latest
	c.Sample(SrcTablet, 1, OpRead, 90, 0, 0)
	c.Sample(SrcTablet, 2, OpRead, 5, 0, 0)
	c.Sample(SrcTablet, 3, OpRead, 5, 0, 0)
	c.Sample(SrcRange, 0, OpDeliver, 50, 0, 0)
	c.Sample(SrcRange, 1, OpDeliver, 25, 0, 0)

	s := c.Snapshot()
	if len(s.Hotspots) == 0 {
		t.Fatal("no hotspots")
	}
	top := s.Hotspots[0]
	if top.Source != "tablet" || top.Shard != 1 {
		t.Fatalf("top hotspot: want tablet/1, got %s/%d", top.Source, top.Shard)
	}
	if top.Score < 10 {
		t.Fatalf("dominating cell score too low: %v", top.Score)
	}

	shard, ops, ok := c.TopShard(SrcTablet, at)
	if !ok || shard != 1 || ops != 90 {
		t.Fatalf("TopShard(tablet) = %d,%d,%v", shard, ops, ok)
	}
	shard, _, ok = c.TopShard(SrcRange, at)
	if !ok || shard != 0 {
		t.Fatalf("TopShard(range) = %d,%v", shard, ok)
	}
	// Gap timestamp falls back to the nearest window.
	if _, _, ok := c.TopShard(SrcTablet, at.Add(10*windowDur)); !ok {
		t.Fatal("TopShard gap fallback failed")
	}
}

func TestHeat(t *testing.T) {
	c, clock := newTestCollector(t)
	c.Sample(SrcTablet, 7, OpRead, 10, 0, 0)
	clock.Advance(windowDur * 6 / 5)
	c.Sample(SrcTablet, 7, OpCommit, 5, 0, 0)
	if got := c.Heat(SrcTablet, 7); got != 15 {
		t.Fatalf("Heat = %d, want 15 (current+previous windows)", got)
	}
	if got := c.Heat(SrcTablet, 8); got != 0 {
		t.Fatalf("Heat of cold shard = %d", got)
	}
}

func TestEventsRingAndStamping(t *testing.T) {
	c, clock := newTestCollector(t)
	clock.Set(5000)
	c.Record(EvSplit, Event{Source: SrcTablet.String(), Shard: 1, Peer: 2, HeatBefore: 100, HeatAfter: 50})
	for i := 0; i < eventCap+2; i++ {
		c.Record(EvShed, Event{Source: "wfq", Key: "db"})
	}
	ev := c.Events()
	if len(ev) != eventCap {
		t.Fatalf("event cap not enforced: %d", len(ev))
	}
	if ev[len(ev)-1].Site != EvShed || ev[len(ev)-1].TS != 5000 {
		t.Fatalf("last event wrong: %+v", ev[len(ev)-1])
	}
	// The split was pushed out by the cap.
	for _, e := range ev {
		if e.Site == EvSplit {
			t.Fatal("oldest event not dropped")
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	c, _ := newTestCollector(t)
	c.Sample(SrcTablet, 1, OpRead, 9, 64, time.Millisecond)
	c.Record(EvSplit, Event{Source: SrcTablet.String(), Shard: 1, Peer: 2, Key: `"users"`})
	raw, err := json.Marshal(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	if len(s.Windows) != 1 || s.Windows[0].Cells[0].Ops != 9 || len(s.Events) != 1 {
		t.Fatalf("round trip lost data: %+v", s)
	}
}

func TestConcurrentSampling(t *testing.T) {
	clock := truetime.NewSystem(0)
	c := New(clock)
	var wg sync.WaitGroup
	const workers, per = 8, 2000
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Sample(SrcTablet, uint64(w%4), OpRead, 1, 1, time.Microsecond)
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	var total int64
	for _, w := range s.Windows {
		for _, cl := range w.Cells {
			total += cl.Ops
		}
	}
	// With second-wide windows nothing ages out of the ring mid-test.
	if total+s.Dropped != workers*per {
		t.Fatalf("lost samples: total=%d dropped=%d want %d", total, s.Dropped, workers*per)
	}
}

func TestRenderText(t *testing.T) {
	c, _ := newTestCollector(t)
	c.Sample(SrcTablet, 1, OpRead, 100, 0, 0)
	c.Sample(SrcTablet, 2, OpRead, 3, 0, 0)
	c.Sample(SrcRange, 0, OpDeliver, 10, 0, 0)
	c.Record(EvSplit, Event{Source: SrcTablet.String(), Shard: 1, Peer: 2, HeatBefore: 100, HeatAfter: 50, Detail: "hot"})
	out := RenderText(c.Snapshot(), 0)
	for _, want := range []string{"tablet/1", "tablet/2", "range/0", "█", "hotspots:", "spanner.split", "heat=100->50"} {
		if !strings.Contains(out, want) {
			t.Fatalf("RenderText missing %q in:\n%s", want, out)
		}
	}
	// Tablets render above ranges.
	if strings.Index(out, "tablet/1") > strings.Index(out, "range/0") {
		t.Fatalf("row order wrong:\n%s", out)
	}
}

func TestRenderTextEmpty(t *testing.T) {
	var c *Collector
	out := RenderText(c.Snapshot(), 0)
	if !strings.Contains(out, "no heat recorded") || !strings.Contains(out, "disabled") {
		t.Fatalf("empty render wrong:\n%s", out)
	}
}

func TestRenderSVG(t *testing.T) {
	c, _ := newTestCollector(t)
	c.Sample(SrcTablet, 1, OpRead, 100, 0, 0)
	c.Sample(SrcTablet, 2, OpRead, 1, 0, 0)
	c.Record(EvSplit, Event{Source: SrcTablet.String(), Shard: 1, Peer: 2, Detail: `a<b&"c"`})
	svg := string(RenderSVG(c.Snapshot()))
	if !strings.HasPrefix(svg, "<svg xmlns=") || !strings.HasSuffix(svg, "</svg>") {
		t.Fatalf("not a self-contained svg:\n%.120s", svg)
	}
	for _, want := range []string{"tablet/1", "<rect", "<path", "&lt;b&amp;"} {
		if !strings.Contains(svg, want) {
			t.Fatalf("svg missing %q", want)
		}
	}
	if strings.Contains(svg, `Detail:"a<b`) || strings.Contains(svg, `>a<b&`) {
		t.Fatal("svg detail not escaped")
	}
}

func TestPackKey(t *testing.T) {
	for _, tc := range []struct {
		src   Source
		shard uint64
	}{{SrcTablet, 0}, {SrcTablet, 1}, {SrcRange, 0}, {SrcRange, 255}, {SrcTablet, 1<<56 - 1}} {
		src, shard := unpackKey(packKey(tc.src, tc.shard))
		if src != tc.src || shard != tc.shard {
			t.Fatalf("pack/unpack(%v,%d) = %v,%d", tc.src, tc.shard, src, shard)
		}
	}
	if packKey(SrcTablet, 0) == 0 {
		t.Fatal("packed key collides with the empty-slot sentinel")
	}
}
