// Command firestore-bench regenerates the paper's tables and figures
// (§V) against this implementation. Each figure prints as a text table of
// the same series the paper plots.
//
// Usage:
//
//	firestore-bench -fig 6            # one figure: 6, 7, 8, 9, 10a, 10b, 11
//	firestore-bench -tab 1            # the ease-of-use table
//	firestore-bench -abl zigzag       # ablations: zigzag, multiregion, shedding, planner
//	firestore-bench -bulk             # YCSB bulk load: sequential Set vs BulkWriter
//	firestore-bench -chaos list       # list fault-injection scenarios
//	firestore-bench -chaos accept-blackhole -seed 7   # run one scenario
//	firestore-bench -all              # everything
//	firestore-bench -all -scale 0.2   # faster, smaller runs
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"firestore/internal/bench"
	"firestore/internal/chaos"
	"firestore/internal/cluster"
	"firestore/internal/obs"
)

func main() {
	// Cluster chaos scenarios re-exec this binary as tablet-server child
	// processes; the hook must run before flags.
	cluster.MaybeRunTabletChild()
	fig := flag.String("fig", "", "figure to regenerate: 6, 7, 8, 7+8, 9, 10a, 10b, 11")
	tab := flag.String("tab", "", "table to regenerate: 1")
	abl := flag.String("abl", "", "ablation to run: zigzag, multiregion, shedding, planner")
	bulk := flag.Bool("bulk", false, "run the YCSB bulk-load comparison (sequential Set vs BulkWriter)")
	chaosName := flag.String("chaos", "", "fault-injection scenario to run (or \"list\", \"all\")")
	all := flag.Bool("all", false, "run every experiment")
	scale := flag.Float64("scale", 1.0, "experiment size/duration multiplier")
	seed := flag.Int64("seed", 1, "random seed")
	quiet := flag.Bool("q", false, "suppress progress logging")
	spans := flag.Bool("spans", false, "print per-layer span latency histograms after the run")
	flag.Parse()

	var logw io.Writer = os.Stderr
	if *quiet {
		logw = nil
	}
	opts := bench.Options{Scale: *scale, Seed: *seed, Log: logw}
	out := os.Stdout

	if *all {
		bench.Fig6(opts).Fprint(out)
		f7, f8 := bench.Fig7And8(opts)
		f7.Fprint(out)
		f8.Fprint(out)
		bench.Fig9(opts).Fprint(out)
		bench.Fig10a(opts).Fprint(out)
		bench.Fig10b(opts).Fprint(out)
		bench.Fig11(opts).Fprint(out)
		bench.Tab1(opts).Fprint(out)
		bench.AblZigzag(opts).Fprint(out)
		bench.AblMultiRegion(opts).Fprint(out)
		bench.AblShedding(opts).Fprint(out)
		bench.AblPlanner(opts).Fprint(out)
		bench.BulkLoad(opts).Fprint(out)
		if *spans {
			printSpans(out)
		}
		return
	}

	ran := false
	if *fig != "" {
		ran = true
		switch *fig {
		case "6":
			bench.Fig6(opts).Fprint(out)
		case "7":
			bench.Fig7(opts).Fprint(out)
		case "8":
			bench.Fig8(opts).Fprint(out)
		case "7+8":
			f7, f8 := bench.Fig7And8(opts)
			f7.Fprint(out)
			f8.Fprint(out)
		case "9":
			bench.Fig9(opts).Fprint(out)
		case "10a":
			bench.Fig10a(opts).Fprint(out)
		case "10b":
			bench.Fig10b(opts).Fprint(out)
		case "11":
			bench.Fig11(opts).Fprint(out)
		default:
			fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
			os.Exit(2)
		}
	}
	if *tab != "" {
		ran = true
		switch *tab {
		case "1":
			bench.Tab1(opts).Fprint(out)
		default:
			fmt.Fprintf(os.Stderr, "unknown table %q\n", *tab)
			os.Exit(2)
		}
	}
	if *abl != "" {
		ran = true
		switch *abl {
		case "zigzag":
			bench.AblZigzag(opts).Fprint(out)
		case "multiregion":
			bench.AblMultiRegion(opts).Fprint(out)
		case "shedding":
			bench.AblShedding(opts).Fprint(out)
		case "planner":
			bench.AblPlanner(opts).Fprint(out)
		default:
			fmt.Fprintf(os.Stderr, "unknown ablation %q\n", *abl)
			os.Exit(2)
		}
	}
	if *bulk {
		ran = true
		bench.BulkLoad(opts).Fprint(out)
	}
	if *chaosName != "" {
		ran = true
		if !runChaos(out, logw, *chaosName, *seed) {
			os.Exit(1)
		}
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
	if *spans {
		printSpans(out)
	}
}

// printSpans dumps the per-layer latency histograms the run's spans fed
// into the process-wide registry (backend.commit, spanner.txn.commit,
// ...), one line per (span, database, status code): "where did the time
// go, and with what outcome" after any experiment.
func printSpans(out io.Writer) {
	hists := obs.Default.Snapshot().Histograms
	if len(hists) == 0 {
		return
	}
	fmt.Fprintf(out, "\n# span latencies (per layer, database and status code)\n")
	for _, h := range hists {
		fmt.Fprintf(out, "%-24s %-8s %-18s n=%d mean=%v p50=%v p95=%v p99=%v\n",
			h.Name, h.Labels["db"], h.Labels["code"], h.Count,
			time.Duration(h.Mean), time.Duration(h.P50), time.Duration(h.P95), time.Duration(h.P99))
	}
}

// runChaos runs one named chaos scenario (or "all", or "list") and
// prints its invariant report. It returns false if any invariant failed.
func runChaos(out, logw io.Writer, name string, seed int64) bool {
	if name == "list" {
		fmt.Fprintf(out, "%-20s %s\n", "SCENARIO", "DESCRIPTION")
		for _, sc := range chaos.Scenarios() {
			fmt.Fprintf(out, "%-20s %s\n", sc.Name, sc.Doc)
		}
		return true
	}
	var run []chaos.Scenario
	if name == "all" {
		run = chaos.Scenarios()
	} else {
		sc, ok := chaos.Find(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown scenario %q (try -chaos list)\n", name)
			os.Exit(2)
		}
		run = []chaos.Scenario{sc}
	}
	pass := true
	for _, sc := range run {
		opt := chaos.Options{Seed: seed}
		if sc.Durable || sc.Cluster {
			dir, err := os.MkdirTemp("", "firestore-chaos-"+sc.Name+"-")
			if err != nil {
				fmt.Fprintf(os.Stderr, "chaos %s: %v\n", sc.Name, err)
				os.Exit(1)
			}
			defer os.RemoveAll(dir)
			opt.Dir = dir
		}
		if logw != nil {
			opt.Log = func(format string, args ...any) {
				fmt.Fprintf(logw, "chaos %s: "+format+"\n", append([]any{sc.Name}, args...)...)
			}
		}
		rep, err := chaos.Run(sc, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaos %s: %v\n", sc.Name, err)
			os.Exit(1)
		}
		printChaosReport(out, rep)
		pass = pass && rep.Pass
	}
	return pass
}

func printChaosReport(out io.Writer, rep *chaos.Report) {
	verdict := "PASS"
	if !rep.Pass {
		verdict = "FAIL"
	}
	fmt.Fprintf(out, "\n# chaos %s (seed %d): %s\n", rep.Scenario, rep.Seed, verdict)
	fmt.Fprintf(out, "commits=%d commit_errs=%d out_of_syncs=%d requeries=%d\n",
		rep.Commits, rep.CommitErrs, rep.OutOfSyncs, rep.Requeries)
	if rep.Recoveries+rep.Flushes+rep.Compactions > 0 {
		fmt.Fprintf(out, "storage: recoveries=%d flushes=%d compactions=%d\n",
			rep.Recoveries, rep.Flushes, rep.Compactions)
	}
	for site, sched := range rep.Schedules {
		fmt.Fprintf(out, "schedule %-28s %s (fired %d)\n", site, sched, rep.Injected[site])
	}
	for _, inv := range rep.Invariants {
		mark := "ok  "
		if !inv.OK {
			mark = "FAIL"
		}
		fmt.Fprintf(out, "%s %-28s %s\n", mark, inv.Name, inv.Detail)
	}
}
