package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// complete reports which declared names are missing from got, or hold a
// value that is not a finite number.
func complete(defs []metricDef, got map[string]metric) error {
	var bad []string
	for _, d := range defs {
		m, ok := got[d.name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			bad = append(bad, d.name)
		}
	}
	if len(got) != len(defs) {
		for name := range got {
			if !declared(defs, name) {
				bad = append(bad, name+" (undeclared)")
			}
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("metrics missing, not finite or undeclared: %v", bad)
	}
	return nil
}

func declared(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}
func smokeOpts(t *testing.T) runOpts {
	return runOpts{seed: 1, seconds: 400 * time.Millisecond, traced: true, sz: smokeSizes, scratch: t.TempDir()}
}

// TestSmokeWorkloads runs every workload at smoke scale with the traced
// pass on: each must pass its correctness check with no failed op, emit
// every declared metric as a finite number, time every layer probe, and
// leave a trace file and a well-formed result line.
func TestSmokeWorkloads(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			o := smokeOpts(t)
			res, err := runWorkload(context.Background(), name, o)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d check=%q", res.Correct, res.Attempted, res.Failed, res.CheckError)
			}
			if err := complete(endToEndMetrics, res.EndToEnd); err != nil {
				t.Error("end to end:", err)
			}
			if err := complete(perLayerMetrics(), res.PerLayer); err != nil {
				t.Error("per layer:", err)
			}
			for _, d := range endToEndMetrics {
				if res.EndToEnd[d.name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", d.name, res.EndToEnd[d.name].Value)
				}
			}
			for _, p := range layerProbes {
				if res.PerLayer[p+".ns"].Value <= 0 {
					t.Errorf("probe %s took no time", p)
				}
			}

			var tr struct {
				BenchSpans   []benchSpan   `json:"bench_spans"`
				ProgramSpans []programSpan `json:"program_spans"`
			}
			if err := readJSON(res.TraceFile, &tr); err != nil {
				t.Fatal(err)
			}
			if len(tr.BenchSpans) == 0 || len(tr.ProgramSpans) == 0 {
				t.Errorf("trace has %d benchmark spans and %d program spans", len(tr.BenchSpans), len(tr.ProgramSpans))
			}

			for _, traced := range []bool{false, true} {
				var line struct {
					Correct   *bool `json:"correct"`
					Attempted *int  `json:"attempted"`
					Failed    *int  `json:"failed"`
					Metrics   map[string]struct {
						Value *float64 `json:"value"`
						Unit  *string  `json:"unit"`
					} `json:"metrics"`
				}
				dec := json.NewDecoder(strings.NewReader(contractLine(res, traced)))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&line); err != nil {
					t.Fatal(err)
				}
				want := endToEndMetrics
				if traced {
					want = perLayerMetrics()
				}
				if line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(want) {
					t.Errorf("result line (trace=%v) is missing keys or metrics: %d of %d", traced, len(line.Metrics), len(want))
				}
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json inside the driver's limits and in
// step with the names and units the benchmark prints.
func TestBenchmarkJSON(t *testing.T) {
	var spec benchmarkSpec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or repeated", n)
		}
		seen[n] = true
	}

	if len(spec.Workloads) < 2 || len(spec.Workloads) > 8 || len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Fatalf("%d workloads, %d end-to-end, %d per-layer metrics", len(spec.Workloads), len(spec.EndToEnd), len(spec.PerLayer))
	}
	var workloads []string
	for _, w := range spec.Workloads {
		checkName(w.Name)
		workloads = append(workloads, w.Name)
		if w.Why != workloadWhy[w.Name] || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why differs from the benchmark's or is too long", w.Name)
		}
	}
	if !reflect.DeepEqual(workloads, workloadNames) {
		t.Errorf("workloads %v, benchmark runs %v", workloads, workloadNames)
	}

	var e2e, layer []metricDef
	setup := false
	for _, m := range spec.EndToEnd {
		checkName(m.Name)
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: unit %q better %q bound %v", m.Name, m.Unit, m.Better, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	for _, m := range spec.PerLayer {
		checkName(m.Name)
		layer = append(layer, metricDef{m.Name, m.Unit})
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
	if !setup {
		t.Error("no setup_s metric with unit s, better lower")
	}
	if !reflect.DeepEqual(e2e, endToEndMetrics) {
		t.Errorf("end-to-end metrics declared %v, printed %v", e2e, endToEndMetrics)
	}
	if !reflect.DeepEqual(layer, perLayerMetrics()) {
		t.Errorf("per-layer metrics declared differ from printed:\n%v\n%v", layer, perLayerMetrics())
	}

	if spec.RunSeconds < 1 || spec.RunSeconds > 60 || len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", spec.RunSeconds, spec.Paths)
	}
	// 4 + 22 runs per workload, each the window plus set-ups, warm-up,
	// check and (traced) probes, must fit the driver's 3420 s with room
	// for two builds; 18 s of overhead per run is what the disk workload
	// needs on the reference box.
	if total := (4 + 22*len(spec.Workloads)) * (spec.RunSeconds + 18); total > 3300 {
		t.Errorf("run_seconds %d gives about %d s of runs", spec.RunSeconds, total)
	}
}

// TestGeneratorDeterminism: a seed fixes the inputs, the three YCSB
// workloads replay one op sequence, and another seed gives other inputs.
func TestGeneratorDeterminism(t *testing.T) {
	o := runOpts{seed: 7, seconds: time.Second, sz: smokeSizes}
	hashes := map[string]string{}
	for _, name := range workloadNames {
		a, err := newBench(name, o)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newBench(name, o)
		if a.inputsSHA() != b.inputsSHA() {
			t.Errorf("%s: same seed, different inputs", name)
		}
		o2 := o
		o2.seed = 8
		c, _ := newBench(name, o2)
		if a.inputsSHA() == c.inputsSHA() {
			t.Errorf("%s: seeds 7 and 8 give the same inputs", name)
		}
		hashes[name] = a.inputsSHA()
	}
	if hashes["ycsb_a_mem"] != hashes["ycsb_a_disk"] || hashes["ycsb_a_mem"] != hashes["ycsb_a_wire"] {
		t.Errorf("ycsb_a_* inputs differ: %v", hashes)
	}
	mem, wire := newYCSB(engineMem, 7, smokeSizes, ""), newYCSB(engineWire, 7, smokeSizes, "")
	if !reflect.DeepEqual(mem.in.ops, wire.in.ops) || !reflect.DeepEqual(mem.in.pool, wire.in.pool) {
		t.Error("ycsb_a_mem and ycsb_a_wire op sequences differ")
	}
	if bytes.Equal(mem.in.value(3, 0, 1), mem.in.value(3, 1, 1)) {
		t.Error("two clients' values for one key are indistinguishable")
	}
}

// TestPaceTimesFromDueTime: the open-loop pacer hands each request the
// time it was due, so a stalled request inflates the latency of the ones
// queued behind it rather than hiding the wait.
func TestPaceTimesFromDueTime(t *testing.T) {
	const (
		n        = 24
		interval = 2 * time.Millisecond
		stallAt  = 5
		stall    = 60 * time.Millisecond
	)
	lat := make([]time.Duration, n)
	late := pace(context.Background(), n, interval, func(i int, due time.Time) {
		if i == stallAt {
			time.Sleep(stall) // the fake client hangs on one request
		}
		lat[i] = time.Since(due)
	})
	if len(late) != n {
		t.Fatalf("paced %d of %d requests", len(late), n)
	}
	// Request stallAt+1 was due one interval after the stalled one was
	// sent and could not start until it returned.
	if want := stall - 2*interval; lat[stallAt+1] < want || late[stallAt+1] < want {
		t.Errorf("request after the stall: latency %v, lateness %v, want both >= %v", lat[stallAt+1], late[stallAt+1], want)
	}
	// The backlog drains one interval per request.
	if lat[stallAt+10] >= lat[stallAt+1] {
		t.Errorf("backlog did not drain: %v then %v", lat[stallAt+1], lat[stallAt+10])
	}
	if lat[stallAt-1] >= stall/2 {
		t.Errorf("request before the stall already took %v", lat[stallAt-1])
	}
}

func TestPercentiles(t *testing.T) {
	s := make([]time.Duration, 2000)
	for i := range s {
		s[i] = time.Duration(i + 1)
	}
	if got := percentile(s, 0.5); got != 1000 {
		t.Errorf("p50 = %d", got)
	}
	if got, p := tail(s); got != 1980 || p != 0.99 {
		t.Errorf("tail of 2000 = %d at %v", got, p)
	}
	if got, p := tail(s[:100]); p != 0.9 || got != 90 {
		t.Errorf("tail of 100 = %d at %v, want the p90 (ten samples beyond it)", got, p)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	med, q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if med != 5.5 || q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, med, q3)
	}
}

// TestCompare: a metric worse by more than its bound is regressed, one
// whose runs spread wider than the bound is unresolved, the rest are ok.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		blob, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// rep is a report of four runs: ops and lat steady, noisy as given.
	rep := func(ops, lat float64, noisy ...float64) report {
		wr := workloadReport{Name: "w"}
		for _, n := range noisy {
			wr.Runs = append(wr.Runs, &result{EndToEnd: map[string]metric{"ops": {Value: ops}, "lat": {Value: lat}, "noisy": {Value: n}}})
		}
		return report{Workloads: []workloadReport{wr}}
	}
	spec := write("spec.json", map[string]any{"end_to_end": []map[string]any{
		{"name": "ops", "better": "higher", "bound": 0.1},
		{"name": "lat", "better": "lower", "bound": 0.1},
		{"name": "noisy", "better": "lower", "bound": 0.1},
	}})
	a := write("a.json", rep(100, 10, 5, 10, 15, 20))
	same := write("same.json", rep(95, 10.5, 5, 10, 15, 20))
	worse := write("worse.json", rep(80, 10.5, 50, 100, 150, 200))

	var out bytes.Buffer
	regressed, err := compareReports(&out, a, same, spec)
	if err != nil || regressed {
		t.Fatalf("within bounds: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	out.Reset()
	regressed, err = compareReports(&out, a, worse, spec)
	if err != nil || !regressed {
		t.Fatalf("ops fell by a fifth: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	for _, want := range []string{"regressed", "unresolved", "ok"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("no row marked %s:\n%s", want, out.String())
		}
	}
}
