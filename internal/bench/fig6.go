package bench

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Fig6 reproduces the production-statistics boxplots (§V-A, Fig. 6):
// per-database storage size, throughput, and active real-time query
// counts across the fleet, normalized to their medians. The paper's
// fleet cannot be observed, so a synthetic fleet is drawn from
// heavy-tailed log-normal distributions calibrated to the paper's
// claims — "some Firestore databases differ from the median storage size
// by more than nine orders of magnitude" and "several hundred thousand
// times the number of active queries as the median".
func Fig6(opts Options) *Table {
	n := opts.scaledN(4_000_000, 50_000)
	rng := rand.New(rand.NewSource(opts.Seed + 6))
	opts.logf("fig6: synthesizing %d databases", n)

	// sigma (in ln units) controls the spread: over n samples the
	// extreme quantiles sit near ±sigma*sqrt(2 ln n), so sigma ~ 4.3
	// yields >= 9 decimal orders between min and max at fleet scale.
	sample := func(median, sigma float64) []float64 {
		xs := make([]float64, n)
		mu := math.Log(median)
		for i := range xs {
			xs[i] = math.Exp(mu + sigma*rng.NormFloat64())
		}
		return xs
	}
	dims := []struct {
		name   string
		median float64
		sigma  float64
	}{
		{"storage bytes", 50e6, 4.3}, // median ~50MB
		{"throughput QPS", 2.0, 4.3}, // median ~2 QPS
		{"active realtime queries", 3.0, 3.0},
	}
	t := &Table{
		ID:      "FIG6",
		Title:   "fleet variance boxplots, normalized to median",
		Columns: []string{"dimension", "min", "p25", "median", "p75", "max", "log10(max/median)"},
	}
	for _, d := range dims {
		norm := newBoxPlot(sample(d.median, d.sigma)).normalizeToMedian()
		t.AddRow(d.name,
			fmt.Sprintf("%.2e", norm.Min),
			fmt.Sprintf("%.2e", norm.P25),
			fmt.Sprintf("%.2e", norm.Median),
			fmt.Sprintf("%.2e", norm.P75),
			fmt.Sprintf("%.2e", norm.Max),
			fmt.Sprintf("%.1f", math.Log10(norm.Max)),
		)
	}
	t.Notes = append(t.Notes,
		"paper claim: storage and QPS spread >9 orders of magnitude; realtime queries several 100,000x the median",
		fmt.Sprintf("synthetic fleet of %d databases (log-normal); the paper observes Google's production fleet", n))
	return t
}

// boxPlot is the five-number summary Fig. 6 plots.
type boxPlot struct {
	Min, P25, Median, P75, Max float64
}

// newBoxPlot computes the five-number summary of xs (linear
// interpolation between order statistics); the zero boxPlot for an
// empty sample.
func newBoxPlot(xs []float64) boxPlot {
	if len(xs) == 0 {
		return boxPlot{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		i := p * float64(len(s)-1)
		lo := int(i)
		if lo >= len(s)-1 {
			return s[len(s)-1]
		}
		frac := i - float64(lo)
		return s[lo]*(1-frac) + s[lo+1]*frac
	}
	return boxPlot{Min: s[0], P25: q(0.25), Median: q(0.5), P75: q(0.75), Max: s[len(s)-1]}
}

// normalizeToMedian divides every statistic by the median (the paper
// reports "values normalized to their respective median"). A zero median
// returns the input unchanged.
func (b boxPlot) normalizeToMedian() boxPlot {
	if b.Median == 0 {
		return b
	}
	m := b.Median
	return boxPlot{Min: b.Min / m, P25: b.P25 / m, Median: 1, P75: b.P75 / m, Max: b.Max / m}
}
