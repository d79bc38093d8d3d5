package bench

import "testing"

// TestBulkLoadDurableParity is the disk-backed BULK check: the
// BulkWriter on the durable engine (WAL + fsync + segment flush) must
// load with zero per-record errors, actually exercise the flush path,
// and recover every document after a region restart. The docs/s ratio
// against the in-memory run is logged, not gated: its denominator is
// the in-memory commit path, so making that faster lowers the ratio
// with the disk untouched. `go run ./benchmark -compare` against the
// recorded trajectory is the performance gate (ycsb_a_disk).
func TestBulkLoadDurableParity(t *testing.T) {
	res, err := runBulkLoadDurable(fast, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if res.Mem.Errors != 0 || res.Durable.Errors != 0 {
		t.Fatalf("load errors: mem=%d durable=%d", res.Mem.Errors, res.Durable.Errors)
	}
	if res.Mem.DocsPerSec() <= 0 {
		t.Fatalf("in-memory docs/s = %v", res.Mem.DocsPerSec())
	}
	if res.Durable.DocsPerSec() <= 0 {
		t.Fatalf("durable docs/s = %v", res.Durable.DocsPerSec())
	}
	if res.Flushes == 0 {
		t.Fatalf("durable load never flushed a segment (WAL-only run proves nothing about the flush path)")
	}
	if res.Recovered != res.Durable.Docs {
		t.Fatalf("restart recovered %d/%d documents", res.Recovered, res.Durable.Docs)
	}
	t.Logf("durable parity: %.2fx (mem %.0f docs/s, durable %.0f docs/s), %d flushes, %d compactions, recovered %d docs",
		res.Parity(), res.Mem.DocsPerSec(), res.Durable.DocsPerSec(), res.Flushes, res.Compactions, res.Recovered)
}
