package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkSpec is BENCHMARK.json: the contract the benchmark is run
// and judged by.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(path string, into any) error {
	blob, err := os.ReadFile(path) //fslint:ignore iodiscipline reads a report or BENCHMARK.json, not database state
	if err != nil {
		return err
	}
	if err := json.Unmarshal(blob, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareReports prints, per workload and end-to-end metric, report a's
// and b's medians, how much worse b is as a share of a, and the metric's
// bound, marking each row ok, regressed (worse by more than the bound) or
// unresolved (the runs in either report spread wider than the bound, so
// the difference cannot be told from noise). It reports whether any row
// regressed.
func compareReports(w io.Writer, pathA, pathB, specPath string) (bool, error) {
	var a, b report
	var spec benchmarkSpec
	if err := readJSON(pathA, &a); err != nil {
		return false, err
	}
	if err := readJSON(pathB, &b); err != nil {
		return false, err
	}
	if err := readJSON(specPath, &spec); err != nil {
		return false, err
	}
	byName := map[string]workloadReport{}
	for _, wr := range b.Workloads {
		byName[wr.Name] = wr
	}
	regressed := false
	fmt.Fprintf(w, "%-18s %-20s %14s %14s %8s %7s %7s  %s\n", "workload", "metric", "a", "b", "worse", "bound", "spread", "verdict")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			return false, fmt.Errorf("%s has no workload %s", pathB, wa.Name)
		}
		for _, m := range spec.EndToEnd {
			sa, sb := wa.endToEnd(m.Name), wb.endToEnd(m.Name)
			if sa.Median == 0 {
				return false, fmt.Errorf("%s: %s %s is missing or zero", pathA, wa.Name, m.Name)
			}
			worse := (sb.Median - sa.Median) / sa.Median
			if m.Better == "higher" {
				worse = -worse
			}
			spread := max(sa.spread(), sb.spread())
			verdict := "ok"
			switch {
			case spread > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				regressed = true
			}
			fmt.Fprintf(w, "%-18s %-20s %14.4f %14.4f %+7.1f%% %6.1f%% %6.1f%%  %s\n",
				wa.Name, m.Name, sa.Median, sb.Median, 100*worse, 100*m.Bound, 100*spread, verdict)
		}
	}
	return regressed, nil
}
