package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

// workloadWhy records why each workload exists; BENCHMARK.json carries
// the same text.
var workloadWhy = map[string]string{
	"ycsb_a_mem":        "pure code path: SDK, wfq, backend, index diff/encode, spanner, storage.Mem, rtcache with no subscribers; bypasses disk, wire, queries and fan-out; data fits in memory",
	"ycsb_a_disk":       "same op sequence on storage.Disk with a 1 MiB memtable under 18 MB of data: WAL, fsync, flush, compaction, segment reads dominate",
	"ycsb_a_wire":       "same op sequence with storage behind two tablet servers on TCP loopback: transport framing and cluster marshalling dominate",
	"query_mix_mem":     "wide documents, four query shapes plus updates and set/delete: query planning/execution and index/encoding on reads and writes in one run",
	"listen_fanout_mem": "C connections each multiplexing 32 real-time listeners, one open-loop writer at 200 writes/s: rtcache matching and frontend snapshot assembly dominate",
}

// summary is an end-to-end metric over a report's runs of one workload.
type summary struct{ Median, Q1, Q3 float64 }

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

type workloadReport struct {
	Name string    `json:"name"`
	Why  string    `json:"why"`
	Runs []*result `json:"runs"`
}

// endToEnd summarises one end-to-end metric over the workload's runs.
func (wr workloadReport) endToEnd(name string) summary {
	v := make([]float64, len(wr.Runs))
	for i, r := range wr.Runs {
		v[i] = r.EndToEnd[name].Value
	}
	var s summary
	s.Median, s.Q1, s.Q3 = quartiles(v)
	return s
}

// report is what `go run ./benchmark` writes: one point of the repo's
// performance trajectory.
type report struct {
	GoVersion  string           `json:"go_version"`
	NProc      int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Clients    int              `json:"clients"`
	Seed       int64            `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Repeat     int              `json:"repeat"`
	Config     string           `json:"config"`
	Caveats    []string         `json:"caveats"`
	Correct    bool             `json:"correct"`
	Workloads  []workloadReport `json:"workloads"`
}

const configNote = "model off: TimeScale 0, zero backend.Costs, ClockEpsilon 1ns, SchedulerWorkers C, TraceSampleProb -1, KeyViz on, no billing, no faults; " +
	"ycsb_a_disk: MemtableCap 1 MiB, default CompactAt, engine-default flush policy (group fsync before ack)"

var caveats = []string{
	"latencies are this sandbox's: fsync lands in the page cache, not on a device",
	"the load generator shares the machine's cores with the program",
	"ycsb_a_wire's tablet servers run in this process; only the sockets are real",
}

// runAll runs every workload repeat times (run i with seed+i) and prints
// each result as it completes.
func runAll(ctx context.Context, o runOpts, repeat int) (*report, error) {
	rep := &report{
		GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients: clients(), Seed: o.seed, Seconds: o.seconds.Seconds(), Repeat: repeat,
		Config: configNote, Caveats: caveats, Correct: true,
	}
	fmt.Printf("go %s  nproc %d  GOMAXPROCS %d  clients %d  seed %d  window %.1fs\n%s\n",
		rep.GoVersion, rep.NProc, rep.GOMAXPROCS, rep.Clients, o.seed, rep.Seconds, configNote)
	for _, name := range workloadNames {
		wr := workloadReport{Name: name, Why: workloadWhy[name]}
		for i := 0; i < repeat; i++ {
			ro := o
			ro.seed = o.seed + int64(i)
			res, err := runWorkload(ctx, name, ro)
			if err != nil {
				return nil, err
			}
			printResult(os.Stdout, res)
			rep.Correct = rep.Correct && res.Correct
			wr.Runs = append(wr.Runs, res)
		}
		if repeat > 1 {
			printSpreads(os.Stdout, wr)
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	return rep, nil
}

// quartiles follows Python's statistics.quantiles(v, n=4) (the exclusive
// method), which is how the acceptance spreads are defined.
func quartiles(v []float64) (median, q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k*(n+1))/4 - 1
		lo := min(max(int(pos), 0), n-2)
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(2), at(1), at(3)
}

func printResult(w io.Writer, r *result) {
	fmt.Fprintf(w, "\n== %s  seed %d  inputs_sha256 %s\n", r.Workload, r.Seed, r.InputsSHA256)
	fmt.Fprintf(w, "  attempted %d  failed %d  correct %v", r.Attempted, r.Failed, r.Correct)
	if r.CheckError != "" {
		fmt.Fprintf(w, "  CHECK FAILED: %s", r.CheckError)
	}
	fmt.Fprintln(w)
	printMetrics(w, endToEndMetrics, r.EndToEnd)
	if r.PerLayer != nil {
		fmt.Fprintln(w, "  -- per layer (traced pass)")
		printMetrics(w, perLayerMetrics(), r.PerLayer)
		fmt.Fprintf(w, "  trace: %s\n", r.TraceFile)
	}
}

func printSpreads(w io.Writer, wr workloadReport) {
	fmt.Fprintf(w, "  -- %s over %d runs: median, interquartile spread\n", wr.Name, len(wr.Runs))
	for _, d := range endToEndMetrics {
		s := wr.endToEnd(d.name)
		fmt.Fprintf(w, "  %-36s %14.4f %-6s spread %5.1f%%\n", d.name, s.Median, d.unit, 100*s.spread())
	}
}
