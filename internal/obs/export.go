package obs

import (
	"fmt"
	"io"
	"maps"
	"sort"
)

// CounterValue is one counter instance in a snapshot.
type CounterValue struct {
	Name   string `json:"name"`
	Labels Labels `json:"labels,omitempty"`
	Value  int64  `json:"value"`
}

// GaugeValue is one gauge instance in a snapshot.
type GaugeValue struct {
	Name   string  `json:"name"`
	Labels Labels  `json:"labels,omitempty"`
	Value  float64 `json:"value"`
}

// HistogramValue is one histogram instance in a snapshot. Durations are
// reported in nanoseconds, matching time.Duration.
type HistogramValue struct {
	Name   string `json:"name"`
	Labels Labels `json:"labels,omitempty"`
	Count  uint64 `json:"count"`
	Mean   int64  `json:"mean_ns"`
	P50    int64  `json:"p50_ns"`
	P95    int64  `json:"p95_ns"`
	P99    int64  `json:"p99_ns"`
}

// Snapshot is one consistent-enough walk of the registry: every family is
// read under the registry lock, individual instances snapshot atomically.
type Snapshot struct {
	Counters   []CounterValue   `json:"counters"`
	Gauges     []GaugeValue     `json:"gauges"`
	Histograms []HistogramValue `json:"histograms"`
}

// view is a frozen copy of one family taken under the registry lock:
// exporters iterate it (and read callback gauges) lock-free while new
// instances keep registering concurrently.
type view[T any] struct {
	name    string
	keys    []string // canonical label keys, sorted
	members map[string]member[T]
}

// freeze copies every family of one kind into views sorted by name.
// Caller holds r.mu — the instances themselves are safe to read
// unlocked, but the per-family maps are not.
func freeze[T any](fams map[string]*Vec[T]) []view[T] {
	out := make([]view[T], 0, len(fams))
	for _, f := range fams {
		v := view[T]{name: f.name, keys: make([]string, 0, len(f.members)), members: maps.Clone(f.members)}
		for k := range f.members {
			v.keys = append(v.keys, k)
		}
		sort.Strings(v.keys)
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// collect copies every family out under the lock so exporters iterate
// (and call gauge callbacks) without holding it.
func (r *Registry) collect() (cs []view[Counter], gs []view[Gauge], hs []view[Histogram]) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return freeze(r.counters.load()), freeze(r.gauges.load()), freeze(r.histograms.load())
}

// Snapshot captures every metric's current value.
func (r *Registry) Snapshot() Snapshot {
	cs, gs, hs := r.collect()
	var s Snapshot
	for _, f := range cs {
		for _, k := range f.keys {
			s.Counters = append(s.Counters, CounterValue{Name: f.name, Labels: f.members[k].labels, Value: f.members[k].inst.Value()})
		}
	}
	for _, f := range gs {
		for _, k := range f.keys {
			s.Gauges = append(s.Gauges, GaugeValue{Name: f.name, Labels: f.members[k].labels, Value: f.members[k].inst.Value()})
		}
	}
	for _, f := range hs {
		for _, k := range f.keys {
			sum := f.members[k].inst.Snapshot()
			s.Histograms = append(s.Histograms, HistogramValue{
				Name: f.name, Labels: f.members[k].labels, Count: sum.Count,
				Mean: int64(sum.Mean), P50: int64(sum.P50), P95: int64(sum.P95), P99: int64(sum.P99),
			})
		}
	}
	return s
}

// promName sanitizes a layer.op metric name to Prometheus conventions.
func promName(name string) string {
	out := make([]byte, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			out[i] = c
		default:
			out[i] = '_'
		}
	}
	return "firestore_" + string(out)
}

func promLine(w io.Writer, name, labelKey string, value string) {
	if labelKey == "" {
		fmt.Fprintf(w, "%s %s\n", name, value)
		return
	}
	fmt.Fprintf(w, "%s{%s} %s\n", name, labelKey, value)
}

// withLabel appends one more label to a canonical label key.
func withLabel(labelKey, k, v string) string {
	extra := k + `="` + escapeLabel(v) + `"`
	if labelKey == "" {
		return extra
	}
	return labelKey + "," + extra
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format. Counters and gauges map directly; histograms are rendered as
// summaries (quantile label, _sum in seconds, _count).
func (r *Registry) WritePrometheus(w io.Writer) {
	cs, gs, hs := r.collect()
	for _, f := range cs {
		n := promName(f.name)
		fmt.Fprintf(w, "# TYPE %s counter\n", n)
		for _, k := range f.keys {
			promLine(w, n, k, fmt.Sprintf("%d", f.members[k].inst.Value()))
		}
	}
	for _, f := range gs {
		n := promName(f.name)
		fmt.Fprintf(w, "# TYPE %s gauge\n", n)
		for _, k := range f.keys {
			promLine(w, n, k, formatFloat(f.members[k].inst.Value()))
		}
	}
	for _, f := range hs {
		n := promName(f.name) + "_latency_seconds"
		fmt.Fprintf(w, "# TYPE %s summary\n", n)
		for _, k := range f.keys {
			sum := f.members[k].inst.Snapshot()
			promLine(w, n, withLabel(k, "quantile", "0.5"), formatFloat(sum.P50.Seconds()))
			promLine(w, n, withLabel(k, "quantile", "0.95"), formatFloat(sum.P95.Seconds()))
			promLine(w, n, withLabel(k, "quantile", "0.99"), formatFloat(sum.P99.Seconds()))
			promLine(w, n+"_sum", k, formatFloat(sum.Mean.Seconds()*float64(sum.Count)))
			promLine(w, n+"_count", k, fmt.Sprintf("%d", sum.Count))
		}
	}
}

func formatFloat(v float64) string {
	return fmt.Sprintf("%g", v)
}
