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
// An instrument is declared once, where its layer is constructed, and
// held: an unlabelled one is a Counter/Gauge/Histogram field, a labelled
// one comes from the family's Vec (CounterVec(name, "db").With(db)), whose
// warm path is a lock-free map read. Registry.Counter(name, labels) and
// its siblings resolve the same instances under the registry lock; they
// are for constructors and for reading an instrument back.
//
// All operations are safe for concurrent use.
package obs

import (
	"fmt"
	"maps"
	"math"
	"os"
	"slices"
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

// Gauge is an instantaneous value: the last one Set, or — once SetFunc
// has installed a callback — whatever the callback reports when read.
type Gauge struct {
	bits atomic.Uint64
	fn   atomic.Pointer[func() float64]
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// SetFunc makes the gauge report fn(), evaluated at every read (a
// scrape). fn must be safe for concurrent use and cheap.
func (g *Gauge) SetFunc(fn func() float64) { g.fn.Store(&fn) }

// Value returns the callback's reading, or else the stored value.
func (g *Gauge) Value() float64 {
	if fn := g.fn.Load(); fn != nil {
		return (*fn)()
	}
	return math.Float64frombits(g.bits.Load())
}

// cow is a copy-on-write map: get is a lock-free read of the current
// copy; put replaces it, and callers serialise puts (Registry.mu).
type cow[K comparable, V any] struct {
	p atomic.Pointer[map[K]V]
}

func (c *cow[K, V]) load() map[K]V {
	if m := c.p.Load(); m != nil {
		return *m
	}
	return nil
}

func (c *cow[K, V]) put(k K, v V) {
	old := c.load()
	next := make(map[K]V, len(old)+1)
	maps.Copy(next, old)
	next[k] = v
	c.p.Store(&next)
}

// vecKey is a Vec's index key: the label values in declaration order.
// Its length bounds how many label names a family may declare.
type vecKey [2]string

// maxIndex bounds a Vec's index. The family already folds runaway label
// values into "other" (MaxCardinality); the index also remembers which
// values folded, and past this many it stops remembering and resolves
// them under the lock each time rather than grow without bound.
const maxIndex = 4 * MaxCardinality

// Vec is one metric name's family of instances and the handle a layer
// holds to reach them by label value. With is the request-path lookup;
// Registry.Counter(name, labels) and the exporters see the same instances.
type Vec[T any] struct {
	r    *Registry
	name string

	// members holds every instance by canonical label key, with the
	// cardinality cap applied. Guarded by r.mu.
	members map[string]member[T]
	// warned records that this family already logged a cardinality
	// overflow, so a runaway label does not also spam stderr.
	warned bool

	// keys are the label names With's values bind to, fixed by the first
	// declaration; index resolves a value tuple without the lock.
	keys  atomic.Pointer[[]string]
	index cow[vecKey, *T]
}

// CounterVec, GaugeVec and HistogramVec are the three families.
type (
	CounterVec   = Vec[Counter]
	GaugeVec     = Vec[Gauge]
	HistogramVec = Vec[Histogram]
)

type member[T any] struct {
	labels Labels
	inst   *T
}

// Registry holds every metric family.
type Registry struct {
	// mu serialises every insert — a family, an instance, an index
	// entry — and guards each family's members.
	mu         sync.Mutex
	counters   cow[string, *CounterVec]
	gauges     cow[string, *GaugeVec]
	histograms cow[string, *HistogramVec]
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// OrNew returns r, or a private registry when r is nil: a layer built
// without one still declares and feeds its instruments, so the code that
// serves is the code every test and probe measures.
func OrNew(r *Registry) *Registry {
	if r == nil {
		return NewRegistry()
	}
	return r
}

// family returns name's family from fams, creating it on first use.
func family[T any](r *Registry, fams *cow[string, *Vec[T]], name string) *Vec[T] {
	if v := fams.load()[name]; v != nil {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v := fams.load()[name]; v != nil {
		return v
	}
	v := &Vec[T]{r: r, name: name, members: map[string]member[T]{}}
	fams.put(name, v)
	return v
}

// declare fixes v's label names to keys at its first declaration. A
// family has one key list: declaring it again with another is a bug.
// Declaring it again with the same one is lock-free, and keys does not
// escape: a caller's variadic slice stays on its stack. (Not generic for
// that reason — a call into a generic function from an inlined exported
// method loses its escape analysis across packages.)
func (r *Registry) declare(v *atomic.Pointer[[]string], name string, keys []string) {
	if k := v.Load(); k != nil && slices.Equal(*k, keys) {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if k := v.Load(); k != nil && !slices.Equal(*k, keys) {
		panic("obs: " + name + " declared with labels {" + strings.Join(*k, ",") + "} and {" + strings.Join(keys, ",") + "}")
	}
	if len(keys) > len(vecKey{}) {
		panic("obs: " + name + " declares more labels than a Vec indexes: " + strings.Join(keys, ","))
	}
	own := slices.Clone(keys)
	v.Store(&own)
}

// resolve returns the instance for labels, minting it on first use. A
// label set that would mint an instance past the cardinality cap
// resolves to the folded "other" set instead. Caller holds v.r.mu.
func (v *Vec[T]) resolve(labels Labels) *T {
	k := labels.key()
	m, ok := v.members[k]
	if !ok && len(v.members) >= MaxCardinality {
		if !v.warned {
			v.warned = true
			fmt.Fprintf(os.Stderr, "obs: metric %q reached %d label sets; folding new labels into \"other\"\n", v.name, MaxCardinality)
		}
		folded := make(Labels, len(labels))
		for name := range labels {
			folded[name] = "other"
		}
		labels, k = folded, folded.key()
		m, ok = v.members[k]
	}
	if !ok {
		m = member[T]{labels, new(T)}
		v.members[k] = m
	}
	return m.inst
}

func (v *Vec[T]) instance(labels Labels) *T {
	v.r.mu.Lock()
	defer v.r.mu.Unlock()
	return v.resolve(labels)
}

// With returns the instance whose labels are the declared names bound to
// values, in order; an empty value leaves its label off, as DB("") does.
// A seen tuple is one map read: no lock, no Labels, no allocation.
func (v *Vec[T]) With(values ...string) *T {
	keys := *v.keys.Load()
	if len(values) != len(keys) {
		panic("obs: " + v.name + " takes labels {" + strings.Join(keys, ",") + "}, given " + strings.Join(values, ","))
	}
	var k vecKey
	copy(k[:], values)
	if inst := v.index.load()[k]; inst != nil {
		return inst
	}
	v.r.mu.Lock()
	defer v.r.mu.Unlock()
	if inst := v.index.load()[k]; inst != nil {
		return inst
	}
	labels := make(Labels, len(keys))
	for i, name := range keys {
		if values[i] != "" {
			labels[name] = values[i]
		}
	}
	inst := v.resolve(labels)
	if len(v.index.load()) < maxIndex {
		v.index.put(k, inst)
	}
	return inst
}

// Each calls fn with every instance minted so far and its label values
// in declaration order ("" for a label the instance lacks), in no
// particular order: how an accessor reports per-label totals from the
// instruments themselves. fn must not retain values.
func (v *Vec[T]) Each(fn func(values []string, inst *T)) {
	v.r.mu.Lock()
	members := make([]member[T], 0, len(v.members))
	for _, m := range v.members {
		members = append(members, m)
	}
	v.r.mu.Unlock()
	keys := *v.keys.Load()
	values := make([]string, len(keys))
	for _, m := range members {
		for i, name := range keys {
			values[i] = m.labels[name]
		}
		fn(values, m.inst)
	}
}

// Counter returns the counter name{labels}, creating it on first use.
func (r *Registry) Counter(name string, labels Labels) *Counter {
	return family(r, &r.counters, name).instance(labels)
}

// Gauge returns the gauge name{labels}, creating it on first use.
func (r *Registry) Gauge(name string, labels Labels) *Gauge {
	return family(r, &r.gauges, name).instance(labels)
}

// GaugeFunc makes the gauge name{labels} report fn (Gauge.SetFunc).
func (r *Registry) GaugeFunc(name string, labels Labels, fn func() float64) {
	r.Gauge(name, labels).SetFunc(fn)
}

// Histogram returns the latency histogram name{labels}, creating it on
// first use.
func (r *Registry) Histogram(name string, labels Labels) *Histogram {
	return family(r, &r.histograms, name).instance(labels)
}

// CounterVec declares the counter family name over the label names keys.
func (r *Registry) CounterVec(name string, keys ...string) *CounterVec {
	v := family(r, &r.counters, name)
	r.declare(&v.keys, name, keys)
	return v
}

// GaugeVec declares the gauge family name over the label names keys.
func (r *Registry) GaugeVec(name string, keys ...string) *GaugeVec {
	v := family(r, &r.gauges, name)
	r.declare(&v.keys, name, keys)
	return v
}

// HistogramVec declares the histogram family name over the label names
// keys. Declaring a family that already has these keys is lock-free, so
// a span name that arrives with each request resolves here too.
func (r *Registry) HistogramVec(name string, keys ...string) *HistogramVec {
	v := family(r, &r.histograms, name)
	r.declare(&v.keys, name, keys)
	return v
}
