package main

import (
	"fmt"
	"io"
)

// metric is one reported number. N is the sample count behind it where
// the number is a percentile or a per-call median.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Note  string  `json:"note,omitempty"`
}

// metricDef is a metric's fixed name and unit. The lists below are the
// names BENCHMARK.json declares; a test keeps the two in step.
type metricDef struct{ name, unit string }

// endToEndMetrics are what an application developer sees, measured with
// tracing off. Every workload reports every one: read_* is the workload's
// read-side operation — DocumentRef.Get on ycsb_a_*, a query on
// query_mix_mem, due-time-to-last-listener notification on
// listen_fanout_mem — and write_* is a single-document commit.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"cpu_us_per_op", "us"},
	{"allocs_per_op", "count"},
	{"alloc_bytes_per_op", "bytes"},
	{"read_p50_us", "us"},
	{"write_p50_us", "us"},
}

// demotedMetrics were end-to-end candidates, measured the same way in the
// untraced window, whose run-to-run spread on the reference box is wider
// than any bound worth gating on (a p99 that sits on the garbage
// collector's knee, a mean that a handful of compaction stalls decide, a
// load phase of a third of a second). They are still printed, as
// per-layer metrics without a bound.
var demotedMetrics = []metricDef{
	{"e2e.load_docs_per_s", "1/s"},
	{"e2e.read_mean_us", "us"},
	{"e2e.read_p99_us", "us"},
	{"e2e.write_mean_us", "us"},
	{"e2e.write_p99_us", "us"},
}

// layerProbes are the standalone per-layer probes of the traced pass;
// each yields <name>.ns, <name>.allocs and <name>.bytes per call.
var layerProbes = []string{
	"firestore.set", "firestore.get", "firestore.query",
	"backend.commit", "backend.get", "backend.query", "backend.commit_bulk",
	"doc.marshal", "doc.unmarshal",
	"encoding.encode_name", "encoding.encode_value", "encoding.decode_value",
	"index.entries", "index.diff",
	"query.build_plan", "query.execute",
	"spanner.commit", "spanner.snapshot_get", "spanner.snapshot_scan",
	"storage.mem.apply", "storage.mem.get",
	"storage.disk.apply", "storage.disk.get", "storage.disk.scan",
	"transport.call", "cluster.apply", "cluster.get",
	"rtcache.prepare_accept", "wfq.submit", "frontend.listen",
}

// counterMetrics are counters the program already exports, read before
// and after the measured window and normalised.
var counterMetrics = []metricDef{
	{"spanner.commits_per_write", "ratio"},
	{"spanner.aborts_per_commit", "ratio"},
	{"spanner.lock_timeouts", "count"},
	{"spanner.snap_waits_per_read", "ratio"},
	{"storage.fsyncs_per_write", "ratio"},
	{"storage.wal_bytes_per_user_byte", "ratio"},
	{"storage.flushes", "count"},
	{"storage.compactions", "count"},
	{"storage.segments_end", "count"},
	{"storage.stored_bytes_per_user_byte", "ratio"},
	{"transport.rpcs_per_op", "ratio"},
	{"transport.rpc_errs", "count"},
	{"transport.reconnects", "count"},
	{"rtcache.forwarded_per_write", "ratio"},
	{"rtcache.out_of_syncs", "count"},
	{"wfq.dispatched_per_op", "ratio"},
	{"wfq.shed", "count"},
	{"query.scanned_entries_per_result", "ratio"},
}

// spanMetrics come from the spans the program itself records, collected
// in the traced pass only, plus what the traced pass says about tracing
// and about the load generator.
var spanMetrics = []metricDef{
	{"span.wfq.submit.self_p50_us", "us"},
	{"span.backend.commit.self_p50_us", "us"},
	{"span.spanner.txn.commit.p50_us", "us"},
	{"span.rtcache.prepare.p50_us", "us"},
	{"span.backend.get.p50_us", "us"},
	{"span.backend.query.p50_us", "us"},
	{"trace.overhead_ratio", "ratio"},
	{"gen.late_p99_us", "us"},
	{"notify.after_ack_p50_us", "us"},
	{"notify.after_ack_p99_us", "us"},
	{"notify.lost", "count"},
}

// perLayerMetrics is the full per-layer list in print order.
func perLayerMetrics() []metricDef {
	var out []metricDef
	for _, p := range layerProbes {
		out = append(out, metricDef{p + ".ns", "ns"}, metricDef{p + ".allocs", "count"}, metricDef{p + ".bytes", "bytes"})
	}
	out = append(out, counterMetrics...)
	out = append(out, spanMetrics...)
	return append(out, demotedMetrics...)
}

func printMetrics(w io.Writer, defs []metricDef, got map[string]metric) {
	for _, d := range defs {
		m := got[d.name]
		line := fmt.Sprintf("  %-36s %14.4f %-6s", d.name, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" n=%d", m.N)
		}
		if m.Note != "" {
			line += "  (" + m.Note + ")"
		}
		fmt.Fprintln(w, line)
	}
}
