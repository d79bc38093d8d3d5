package main

import (
	"context"
	"fmt"
	"time"
)

// sizes fixes how much data and how many generated ops a run uses.
type sizes struct {
	ycsbDocs     int
	restaurants  int
	messages     int // seeded message documents
	rooms        int // listeners per connection
	listenRate   int // open-loop writes per second
	opsPerClient int // generated sequence length per closed-loop client
	setups       int // set-ups per untraced run; setup_s is their median
	probeSamples int // sampled requests the layer probes re-enact
}

var (
	fullSizes  = sizes{ycsbDocs: 20000, restaurants: 10000, messages: 5000, rooms: 32, listenRate: 200, opsPerClient: 1 << 20, setups: 3, probeSamples: 40}
	smokeSizes = sizes{ycsbDocs: 400, restaurants: 400, messages: 160, rooms: 8, listenRate: 200, opsPerClient: 1 << 14, setups: 1, probeSamples: 4}
)

// An untraced run repeats its set-up until setupBudget is spent, within
// sizes.setups..maxSetups repetitions.
const (
	setupBudget = 2 * time.Second
	maxSetups   = 9
)

// latencyCap preallocates each client's latency series so recording a
// sample allocates nothing inside a window.
const latencyCap = 1 << 18

// workloadNames is the fixed set, in run order.
var workloadNames = []string{"ycsb_a_mem", "ycsb_a_disk", "ycsb_a_wire", "query_mix_mem", "listen_fanout_mem"}

// bench is one workload bound to one run's generated inputs.
type bench interface {
	inputsSHA() string
	// setUp opens a fresh region, creates indexes and loads the data set
	// through the BulkWriter, returning the load phase's size and time.
	setUp(ctx context.Context) (docs int, load time.Duration, err error)
	env() *env
	// tearDown closes the region and removes what setUp created.
	tearDown()
	// drive runs the workload for d, resuming the generated sequences
	// where the previous call stopped.
	drive(ctx context.Context, d time.Duration) *window
	// check compares the database with the generator's shadow state.
	check(ctx context.Context) error
	// userBytes is the user data one successful write carries, and
	// liveUserBytes what a reader can reach once the run is over; they
	// scale the disk engine's write and space amplification, and are 0 on
	// workloads that never run on it.
	userBytes() int
	liveUserBytes() int64
	probeInputs(n int) probeInputs
}

func newBench(name string, o runOpts) (bench, error) {
	switch name {
	case "ycsb_a_mem":
		return newYCSB(engineMem, o.seed, o.sz, o.scratch), nil
	case "ycsb_a_disk":
		return newYCSB(engineDisk, o.seed, o.sz, o.scratch), nil
	case "ycsb_a_wire":
		return newYCSB(engineWire, o.seed, o.sz, o.scratch), nil
	case "query_mix_mem":
		return newQueryMix(o.seed, o.sz), nil
	case "listen_fanout_mem":
		return newListen(o.seed, o.sz, o.seconds), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

type runOpts struct {
	seed    int64
	seconds time.Duration // the measured window
	traced  bool
	sz      sizes
	scratch string // where the disk workload's StorageDir and trace files go
}

// The issue's shape is 3 s warm-up, 20 s window, 5 s traced pass; a
// shorter window shortens the other two in proportion.
func (o runOpts) warmup() time.Duration    { return o.seconds * 3 / 20 }
func (o runOpts) tracedFor() time.Duration { return o.seconds / 4 }

// result is one workload's outcome.
type result struct {
	Workload     string            `json:"workload"`
	Seed         int64             `json:"seed"`
	InputsSHA256 string            `json:"inputs_sha256"`
	Correct      bool              `json:"correct"`
	CheckError   string            `json:"check_error,omitempty"`
	Attempted    int               `json:"attempted"`
	Failed       int               `json:"failed"`
	EndToEnd     map[string]metric `json:"end_to_end"`
	PerLayer     map[string]metric `json:"per_layer,omitempty"`
	TraceFile    string            `json:"trace_file,omitempty"`
}

// runWorkload is one run of one workload: set-up (several times when
// untraced, for a steady setup_s), warm-up, the measured window with
// tracing off, the correctness check, and — when traced — a second,
// traced pass on the same region plus the standalone layer probes.
func runWorkload(ctx context.Context, name string, o runOpts) (*result, error) {
	b, err := newBench(name, o)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: name, Seed: o.seed, InputsSHA256: b.inputsSHA()}
	defer func() {
		if b.env() != nil {
			b.tearDown()
		}
	}()

	// setup_s and load_docs_per_s are medians over several set-ups: at
	// least sz.setups, and more while they are cheap, because a half-second
	// load is noisier than a four-second one. The last region is measured.
	var setupS, loadRate []float64
	began := time.Now()
	for {
		t0 := time.Now()
		docs, load, err := b.setUp(ctx)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		loadRate = append(loadRate, float64(docs)/load.Seconds())
		n := len(setupS)
		if o.traced || n >= maxSetups || (n >= o.sz.setups && time.Since(began) > setupBudget) {
			break // setup_s is an untraced metric: a traced run sets up once
		}
		b.tearDown()
	}

	b.drive(ctx, o.warmup())
	before := readCounters(b.env())
	w := b.drive(ctx, o.seconds)
	after := readCounters(b.env())
	stored := b.env().storedBytes()

	res.Attempted, res.Failed = w.attempted, w.failed
	res.EndToEnd = endToEnd(w, medianFloat(setupS), len(setupS))
	if err := b.check(ctx); err != nil {
		res.CheckError = err.Error()
	}
	res.Correct = res.CheckError == "" && res.Failed == 0
	if !o.traced {
		return res, nil
	}

	tr := newTrace(name, o.seed)
	tw := b.drive(tr.context(ctx, b.env().region), o.tracedFor())
	tr.stop(b.env().region)
	res.PerLayer = map[string]metric{}
	demotedLayer(res.PerLayer, w, medianFloat(loadRate))
	counterLayer(res.PerLayer, before, after, w, b, stored)
	spanLayer(res.PerLayer, tr, w, tw)
	if err := runProbes(ctx, res.PerLayer, tr, b, o); err != nil {
		return nil, fmt.Errorf("%s: probes: %w", name, err)
	}
	res.TraceFile, err = tr.write(o.scratch)
	return res, err
}

// endToEnd reduces the measured window to the end-to-end metrics.
func endToEnd(w *window, setupS float64, setups int) map[string]metric {
	ops := float64(max(w.ok(), 1))
	read, write := sortDurations(w.read), sortDurations(w.write)
	return map[string]metric{
		"setup_s":            {Value: setupS, Unit: "s", N: setups},
		"ops_per_s":          {Value: float64(w.ok()) / w.elapsed.Seconds(), Unit: "1/s", N: w.ok()},
		"cpu_us_per_op":      {Value: us(w.cpu) / ops, Unit: "us", N: w.ok()},
		"allocs_per_op":      {Value: float64(w.allocs) / ops, Unit: "count", N: w.ok()},
		"alloc_bytes_per_op": {Value: float64(w.allocBytes) / ops, Unit: "bytes", N: w.ok()},
		"read_p50_us":        {Value: us(percentile(read, 0.5)), Unit: "us", N: len(read)},
		"write_p50_us":       {Value: us(percentile(write, 0.5)), Unit: "us", N: len(write)},
	}
}

// demotedLayer reports the demoted end-to-end candidates from the same
// untraced window.
func demotedLayer(out map[string]metric, w *window, loadRate float64) {
	out["e2e.load_docs_per_s"] = metric{Value: loadRate, Unit: "1/s", N: 1}
	for side, series := range map[string][]time.Duration{"read": w.read, "write": w.write} {
		out["e2e."+side+"_mean_us"] = metric{Value: us(mean(series)), Unit: "us", N: len(series)}
		v, p := tail(sortDurations(series))
		t := metric{Value: us(v), Unit: "us", N: len(series)}
		if p != 0.99 {
			t.Note = fmt.Sprintf("p%.1f: too few samples for p99", p*100)
		}
		out["e2e."+side+"_p99_us"] = t
	}
}
