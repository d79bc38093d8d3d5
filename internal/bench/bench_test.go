package bench

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// Small-scale smoke runs of every experiment: each must produce a table
// with the expected rows, and directional claims must hold.

var fast = Options{Scale: 0.02, Seed: 1}

func TestFig6(t *testing.T) {
	tab := Fig6(fast)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Spread claim: storage max/median must exceed 6 orders even at
	// reduced fleet size (full scale exceeds the paper's 9).
	var spread float64
	if _, err := fmt.Sscanf(tab.Rows[0][6], "%f", &spread); err != nil || spread < 6 {
		t.Fatalf("storage spread = %s orders (%v)", tab.Rows[0][6], err)
	}
	if !strings.Contains(tab.String(), "FIG6") {
		t.Fatal("print broken")
	}
}

func TestFig9(t *testing.T) {
	tab := Fig9(Options{Scale: 0.01, Seed: 1})
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestFig10a(t *testing.T) {
	tab := Fig10a(Options{Scale: 0.05, Seed: 1})
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestFig10b(t *testing.T) {
	tab := Fig10b(Options{Scale: 0.05, Seed: 1})
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestTab1(t *testing.T) {
	tab := Tab1(fast)
	if len(tab.Rows) == 0 {
		t.Skip("examples/restaurants not built yet")
	}
}

func TestAblMultiRegion(t *testing.T) {
	tab := AblMultiRegion(Options{Scale: 0.1, Seed: 1})
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
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
