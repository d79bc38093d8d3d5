// Command benchmark is the repository's benchmark: five named workloads
// against an in-process core.Region driven through the public firestore
// SDK with the latency model off, end-to-end metrics measured with
// tracing off, per-layer metrics from a second traced pass, correctness
// checked in the same command. See README.md in this directory.
//
//	go run ./benchmark                       # all five workloads, full report
//	go run ./benchmark -workload ycsb_a_mem -seed 3 -seconds 10 -trace 0
//	go run ./benchmark -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload and end with the one-line JSON result (default: all five, full report)")
		seed     = flag.Int64("seed", 1, "generator seed; with -repeat, run i uses seed+i")
		seconds  = flag.Float64("seconds", 20, "measured window in seconds; warm-up and traced pass scale with it")
		traceArg = flag.Int("trace", -1, "1: also run the traced pass and report per-layer metrics; 0: end-to-end only (default: 0 with -workload, 1 without)")
		smoke    = flag.Bool("smoke", false, "tiny data sets, for tests")
		repeat   = flag.Int("repeat", 1, "runs per workload; the report carries medians and quartiles")
		out      = flag.String("out", "", "write the JSON report here (default <dir>/report.json when running all workloads)")
		dir      = flag.String("dir", filepath.Join("benchmark", "out"), "scratch directory for the disk workload, trace files and the default report")
		compare  = flag.Bool("compare", false, "compare two reports: -compare a.json b.json")
		bounds   = flag.String("bounds", "BENCHMARK.json", "where -compare reads each metric's bound")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two report files"))
		}
		regressed, err := compareReports(os.Stdout, flag.Arg(0), flag.Arg(1), *bounds)
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	if err := os.MkdirAll(*dir, 0o755); err != nil { //fslint:ignore iodiscipline the benchmark creates its own scratch directory
		fatal(err)
	}
	o := runOpts{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		sz:      fullSizes,
		scratch: *dir,
	}
	if *smoke {
		o.sz = smokeSizes
	}
	ctx := context.Background()

	if *workload != "" {
		o.traced = *traceArg == 1
		res, err := runWorkload(ctx, *workload, o)
		if err != nil {
			fatal(err)
		}
		printResult(os.Stdout, res)
		fmt.Println(contractLine(res, o.traced))
		if !res.Correct {
			os.Exit(1)
		}
		return
	}

	o.traced = *traceArg != 0
	rep, err := runAll(ctx, o, *repeat)
	if err != nil {
		fatal(err)
	}
	path := *out
	if path == "" {
		path = filepath.Join(*dir, "report.json")
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	// One line per metric keeps the report diffable and a third the size.
	blob = leafObject.ReplaceAllFunc(blob, func(obj []byte) []byte { return indentation.ReplaceAll(obj, []byte(" ")) })
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil { //fslint:ignore iodiscipline the benchmark writes its own report
		fatal(err)
	}
	fmt.Printf("report: %s\n", path)
	if !rep.Correct {
		fatal(fmt.Errorf("a correctness check failed or an operation failed; see above"))
	}
}

// leafObject matches a JSON object that holds no other object or array;
// indentation, a line break with the indent that follows it.
var (
	leafObject  = regexp.MustCompile(`\{[^{}\[\]]*\}`)
	indentation = regexp.MustCompile(`\n\s*`)
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// contractLine is the single JSON object that ends a -workload run: the
// end-to-end metrics with tracing off, the per-layer metrics with it on.
func contractLine(res *result, traced bool) string {
	src := res.EndToEnd
	if traced {
		src = res.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(src))
	for name, m := range src {
		metrics[name] = value{m.Value, m.Unit}
	}
	blob, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		fatal(err)
	}
	return string(blob)
}
