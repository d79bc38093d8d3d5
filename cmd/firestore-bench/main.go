// Command firestore-bench regenerates the paper's tables and figures
// (§V) against this implementation. Each figure prints as a text table of
// the same series the paper plots.
//
// Usage:
//
//	firestore-bench -fig 6            # one figure: 6, 7, 8, 9, 10a, 10b, 11
//	firestore-bench -tab 1            # the ease-of-use table
//	firestore-bench -abl zigzag       # ablations: zigzag, multiregion, shedding
//	firestore-bench -bulk             # YCSB bulk load: sequential Set vs BulkWriter
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
	"firestore/internal/obs"
)

func main() {
	fig := flag.String("fig", "", "figure to regenerate: 6, 7, 8, 7+8, 9, 10a, 10b, 11")
	tab := flag.String("tab", "", "table to regenerate: 1")
	abl := flag.String("abl", "", "ablation to run: zigzag, multiregion, shedding")
	bulk := flag.Bool("bulk", false, "run the YCSB bulk-load comparison (sequential Set vs BulkWriter)")
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
		default:
			fmt.Fprintf(os.Stderr, "unknown ablation %q\n", *abl)
			os.Exit(2)
		}
	}
	if *bulk {
		ran = true
		bench.BulkLoad(opts).Fprint(out)
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
