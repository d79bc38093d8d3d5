package bench

import (
	"flag"
	"strconv"
	"strings"
	"testing"
	"time"
)

// Every experiment runs as a test that logs its table (go test -v prints
// it) and checks the paper's claim on it. Each test has its own small
// default scale; -args -scale 1 runs them all at full size.

var scale = flag.Float64("scale", 0, "experiment size and duration multiplier (1 is the full run); 0 runs each test at its own small scale")

// options returns the Options an experiment test runs with: the -scale
// flag, or else the test's own small scale, with progress to t.Logf.
func options(t *testing.T, small float64) Options {
	if *scale > 0 {
		small = *scale
	}
	return Options{Scale: small, Seed: 1, Logf: t.Logf}
}

func logTables(t *testing.T, tabs ...*Table) {
	for _, tab := range tabs {
		t.Log("\n" + tab.String())
	}
}

// dur parses a latency cell of a table.
func dur(t *testing.T, cell string) time.Duration {
	t.Helper()
	d, err := time.ParseDuration(cell)
	if err != nil {
		t.Fatalf("latency cell %q: %v", cell, err)
	}
	return d
}

// num parses a count or rate cell of a table.
func num(t *testing.T, cell string) float64 {
	t.Helper()
	f, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("numeric cell %q: %v", cell, err)
	}
	return f
}

func TestFig6(t *testing.T) {
	tab := Fig6(options(t, 0.02))
	logTables(t, tab)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Spread claim: storage max/median must exceed 6 orders even at
	// reduced fleet size (full scale exceeds the paper's 9).
	if spread := num(t, tab.Rows[0][6]); spread < 6 {
		t.Fatalf("storage spread = %v orders", spread)
	}
	if !strings.Contains(tab.String(), "FIG6") {
		t.Fatal("print broken")
	}
}

// TestFig7And8 checks §V-B1's YCSB claims: the read p50 stays flat as
// target QPS grows (per workload, the top target's p50 is within 1.2x of
// the lowest's), and updates are slower than reads (the update p50
// exceeds the read p50 at every point). The flatness bound is not put on
// updates: their latency has two modes, near 2.3 and 3.4 ms, and the p50
// of one point lands on either (workload B at 250 QPS at scale 0.02,
// workload A at 1000 QPS at scale 1), so a bound on it fails at random.
func TestFig7And8(t *testing.T) {
	reads, updates := Fig7And8(options(t, 0.02))
	logTables(t, reads, updates)
	if len(reads.Rows) != 8 || len(updates.Rows) != 8 {
		t.Fatalf("rows = %d and %d, want 2 workloads x 4 targets", len(reads.Rows), len(updates.Rows))
	}
	for i, row := range reads.Rows {
		if r, u := dur(t, row[2]), dur(t, updates.Rows[i][2]); u <= r {
			t.Errorf("%s @ %s QPS: update p50 %v, read p50 %v, want the update slower", row[0], row[1], u, r)
		}
	}
	for w := 0; w < len(reads.Rows); w += 4 {
		low, top := reads.Rows[w], reads.Rows[w+3]
		if lo, hi := dur(t, low[2]), dur(t, top[2]); float64(hi) > 1.2*float64(lo) {
			t.Errorf("%s read p50 %v at %s QPS, %v at %s QPS, want at most 1.2x", low[0], hi, top[1], lo, low[1])
		}
	}
}

func TestFig9(t *testing.T) {
	tab := Fig9(options(t, 0.01))
	logTables(t, tab)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

// rises checks the shape of a latency table: the p50 in column col of
// its last row is above that of its first.
func rises(t *testing.T, tab *Table, col int) {
	t.Helper()
	first, last := tab.Rows[0], tab.Rows[len(tab.Rows)-1]
	if dur(t, last[col]) <= dur(t, first[col]) {
		t.Fatalf("%s: p50 %s (%s) then %s (%s), want it to rise", tab.ID, first[col], first[0], last[col], last[0])
	}
}

func TestFig10a(t *testing.T) {
	tab := Fig10a(options(t, 0.05))
	logTables(t, tab)
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	rises(t, tab, 1)
}

func TestFig10b(t *testing.T) {
	tab := Fig10b(options(t, 0.05))
	logTables(t, tab)
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	rises(t, tab, 2)
}

func TestFig11Directional(t *testing.T) {
	if testing.Short() {
		t.Skip("6s experiment")
	}
	tab := Fig11(options(t, 0.15))
	logTables(t, tab)
	if len(tab.Rows) < 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	last := tab.Rows[len(tab.Rows)-1]
	fairP99, fifoP99 := dur(t, last[2]), dur(t, last[4])
	// The paper's claim: without fairness the bystander degrades badly
	// once capacity saturates; with fairness the impact stays small.
	if fifoP99 < 3*fairP99 {
		t.Fatalf("FIFO p99 (%v) not clearly worse than fair p99 (%v)", fifoP99, fairP99)
	}
}

func TestTab1(t *testing.T) {
	tab := Tab1(options(t, 0.02))
	logTables(t, tab)
	if len(tab.Rows) == 0 {
		t.Skip("examples/restaurants not built yet")
	}
}

// TestAblZigzag checks §IV-D3's claim for joining existing indexes: the
// zig-zag join, the composite index and the full scan return the same
// results, and the entries they visit order composite < zig-zag < scan.
func TestAblZigzag(t *testing.T) {
	tab := AblZigzag(options(t, 0.02))
	logTables(t, tab)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	zz, comp, scan := tab.Rows[0], tab.Rows[1], tab.Rows[2]
	if num(t, zz[2]) == 0 || zz[2] != comp[2] || zz[2] != scan[2] {
		t.Errorf("results = %s (zig-zag), %s (composite), %s (scan), want the same, and some", zz[2], comp[2], scan[2])
	}
	if c, z, s := num(t, comp[3]), num(t, zz[3]), num(t, scan[3]); !(c < z && z < s) {
		t.Errorf("entries visited = %v (composite), %v (zig-zag), %v (scan), want composite < zig-zag < scan", c, z, s)
	}
}

func TestAblMultiRegion(t *testing.T) {
	tab := AblMultiRegion(options(t, 0.1))
	logTables(t, tab)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	rises(t, tab, 1)
}

// TestAblShedding checks §IV-C's load-shedding claim: an unbounded queue
// serves the whole spike and sheds nothing, while shedding at a queue
// depth drops some of it and serves the rest with a lower p99.
func TestAblShedding(t *testing.T) {
	tab := AblShedding(options(t, 0.02))
	logTables(t, tab)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	none, shed := tab.Rows[0], tab.Rows[1]
	if num(t, none[2]) != 0 {
		t.Errorf("the unbounded queue shed %s, want 0", none[2])
	}
	if num(t, shed[2]) == 0 {
		t.Errorf("shedding at depth 64 shed nothing")
	}
	if s, n := dur(t, shed[3]), dur(t, none[3]); s >= n {
		t.Errorf("served p99 %v with shedding, %v without, want it lower", s, n)
	}
}

// TestBulkLoad checks the BulkWriter claim: at equal op count it
// sustains at least 3x the docs/s of a sequential DocumentRef.Set loop,
// with every per-record result clean.
func TestBulkLoad(t *testing.T) {
	tab := BulkLoad(options(t, 0.02))
	logTables(t, tab)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	seq, bulk := tab.Rows[0], tab.Rows[1]
	if seq[2] != "0" || bulk[2] != "0" {
		t.Fatalf("load errors = %s (sequential), %s (bulk), want 0", seq[2], bulk[2])
	}
	seqRate, bulkRate := num(t, seq[4]), num(t, bulk[4])
	if seqRate <= 0 {
		t.Fatalf("sequential docs/s = %v", seqRate)
	}
	if speedup := bulkRate / seqRate; speedup < 3 {
		t.Fatalf("BulkWriter speedup = %.2fx (seq %.0f docs/s, bulk %.0f docs/s), want >= 3x", speedup, seqRate, bulkRate)
	}
}

func TestTimeSeries(t *testing.T) {
	ts := newTimeSeries(20 * time.Millisecond)
	ts.record(time.Millisecond)
	time.Sleep(25 * time.Millisecond)
	ts.record(2 * time.Millisecond)
	sums := ts.summaries()
	if len(sums) < 2 {
		t.Fatalf("windows = %d, want >= 2", len(sums))
	}
	if sums[0].Count != 1 {
		t.Fatalf("first window count = %d", sums[0].Count)
	}
}

func TestBoxPlot(t *testing.T) {
	b := newBoxPlot([]float64{1, 2, 3, 4, 5})
	if b != (boxPlot{Min: 1, P25: 2, Median: 3, P75: 4, Max: 5}) {
		t.Fatalf("boxPlot = %+v", b)
	}
	if got := newBoxPlot(nil); got != (boxPlot{}) {
		t.Fatal("empty sample should produce zero boxPlot")
	}
	n := newBoxPlot([]float64{10, 20, 30, 40, 50}).normalizeToMedian()
	if n.Median != 1 || n.Min != 10.0/30 || n.Max != 50.0/30 {
		t.Fatalf("normalized = %+v", n)
	}
	if z := (boxPlot{}).normalizeToMedian(); z != (boxPlot{}) {
		t.Fatal("zero-median normalize should be identity")
	}
}
