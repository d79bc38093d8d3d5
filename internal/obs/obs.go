// Package obs is the central observability registry: named counters,
// gauges, and log-bucketed latency histograms, all labelable — most
// importantly by database ID, since every operational question about a
// multi-tenant system is "which tenant did what" (§IV-C, §V). Metric
// names follow the layer.op scheme ("backend.commit", "wfq.queue_wait")
// and labels attach dimensions ({db="mydb"}), so a scrape of the
// registry answers per-database questions directly.
//
// The registry exports two wire formats from one consistent walk:
// Prometheus text exposition (names sanitized to underscores, histograms
// rendered as summaries with quantile labels) and a JSON snapshot used
// by /debug/metricz?format=json and fsctl stats.
//
// All operations are safe for concurrent use; metric handles returned by
// Counter/Gauge/Histogram are cached by callers on hot paths to skip the
// registry lookup.
package obs

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// MaxCardinality caps the labeled instances one metric name may mint;
// past it, new label sets fold into a single "other" bucket (every label
// value replaced by "other") and the family warns once on stderr.
// Unbounded label values (document names, user IDs) would otherwise grow
// scrapes without bound — the classic cardinality explosion.
const MaxCardinality = 256

// Labels is one metric instance's label set. Instances are keyed by the
// canonical (sorted) rendering, so map ordering does not mint duplicates.
type Labels map[string]string

// DB is shorthand for the one label almost every metric carries.
func DB(db string) Labels {
	if db == "" {
		return nil
	}
	return Labels{"db": db}
}

// key renders the canonical instance key: `k1="v1",k2="v2"` sorted by
// label name — exactly the Prometheus label-body syntax, so exporters
// reuse it verbatim.
func (l Labels) key() string {
	if len(l) == 0 {
		return ""
	}
	names := make([]string, 0, len(l))
	for k := range l {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, k := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l[k]))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// Counter is a monotonically increasing count.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n < 0 is ignored; counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable instantaneous value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// family groups one metric name's labeled instances, keyed by the
// canonical label key.
type family[T any] struct {
	name    string
	members map[string]member[T]
	// warned records that this family already logged a cardinality
	// overflow, so a runaway label does not also spam stderr.
	warned bool
}

type member[T any] struct {
	labels Labels
	inst   T
}

// Registry holds every metric family. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*family[*Counter]
	gauges     map[string]*family[*Gauge]
	gaugeFuncs map[string]*family[func() float64]
	histograms map[string]*family[*Histogram]
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*family[*Counter]{},
		gauges:     map[string]*family[*Gauge]{},
		gaugeFuncs: map[string]*family[func() float64]{},
		histograms: map[string]*family[*Histogram]{},
	}
}

// slot resolves name{labels} to its family and canonical key, creating
// the family on first use. When labels would mint a new instance past
// the cardinality cap, it resolves to the folded "other" label set
// instead. Caller holds r.mu.
func slot[T any](fams map[string]*family[T], name string, labels Labels) (*family[T], Labels, string) {
	f, ok := fams[name]
	if !ok {
		f = &family[T]{name: name, members: map[string]member[T]{}}
		fams[name] = f
	}
	k := labels.key()
	if _, exists := f.members[k]; exists || len(f.members) < MaxCardinality {
		return f, labels, k
	}
	if !f.warned {
		f.warned = true
		fmt.Fprintf(os.Stderr, "obs: metric %q reached %d label sets; folding new labels into \"other\"\n", f.name, MaxCardinality)
	}
	folded := make(Labels, len(labels))
	for name := range labels {
		folded[name] = "other"
	}
	return f, folded, folded.key()
}

// instance returns name{labels} from fams, minting it on first use.
// Caller holds r.mu.
func instance[T any](fams map[string]*family[*T], name string, labels Labels) *T {
	f, labels, k := slot(fams, name, labels)
	m, ok := f.members[k]
	if !ok {
		m = member[*T]{labels, new(T)}
		f.members[k] = m
	}
	return m.inst
}

// Default is the process-wide registry used by components not wired to an
// explicit one (tests, benchmarks constructing layers directly). Servers
// build their own via NewRegistry so scrapes see only their region.
var Default = NewRegistry()

// Counter returns the counter name{labels}, creating it on first use.
func (r *Registry) Counter(name string, labels Labels) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	return instance(r.counters, name, labels)
}

// Gauge returns the settable gauge name{labels}, creating it on first use.
func (r *Registry) Gauge(name string, labels Labels) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	return instance(r.gauges, name, labels)
}

// GaugeFunc registers (or replaces) a callback gauge name{labels},
// evaluated at scrape time. fn must be safe for concurrent use and cheap.
func (r *Registry) GaugeFunc(name string, labels Labels, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, labels, k := slot(r.gaugeFuncs, name, labels)
	f.members[k] = member[func() float64]{labels, fn}
}

// Histogram returns the latency histogram name{labels}, creating it on
// first use.
func (r *Registry) Histogram(name string, labels Labels) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	return instance(r.histograms, name, labels)
}
