package bench

import "testing"

// TestBulkLoadClusterParity is the wire-overhead BULK check: the
// BulkWriter with the Spanner pool's storage served by tablet-server
// peers over TCP loopback must load with zero per-record errors and
// actually cross the wire (non-zero engine RPCs, zero RPC errors — this
// run injects no faults). The docs/s ratio against the in-process run
// is logged, not gated: at this op count it is fixed per-run cost over
// an in-process denominator that every commit-path speed-up shrinks.
// `go run ./benchmark -compare` is the performance gate (ycsb_a_wire).
func TestBulkLoadClusterParity(t *testing.T) {
	res, err := runBulkLoadCluster(fast)
	if err != nil {
		t.Fatal(err)
	}
	if res.InProc.Errors != 0 || res.Cluster.Errors != 0 {
		t.Fatalf("load errors: in-process=%d cluster=%d", res.InProc.Errors, res.Cluster.Errors)
	}
	if res.InProc.DocsPerSec() <= 0 {
		t.Fatalf("in-process docs/s = %v", res.InProc.DocsPerSec())
	}
	if res.Cluster.DocsPerSec() <= 0 {
		t.Fatalf("cluster docs/s = %v", res.Cluster.DocsPerSec())
	}
	if res.RPCs == 0 {
		t.Fatal("cluster load issued zero engine RPCs (the load never crossed the wire)")
	}
	if res.RPCErrs != 0 {
		t.Fatalf("cluster load hit %d RPC errors with no faults armed", res.RPCErrs)
	}
	t.Logf("cluster parity: %.2fx (in-process %.0f docs/s, cluster %.0f docs/s), %d RPCs over %d peers",
		res.Parity(), res.InProc.DocsPerSec(), res.Cluster.DocsPerSec(), res.RPCs, res.Peers)
}
