package bench

import (
	"testing"

	"firestore/internal/keyviz"
	"firestore/internal/truetime"
)

// TestKeyVizOverheadGate runs the fixed-op YCSB-A workload with the
// keyspace collector enabled and disabled (best-of-3 alternating
// rounds) and logs the throughput ratio. The ratio is reported, not
// gated: a 2 % wall-clock A/B does not resolve on a shared 2-core box,
// and the faster the commit path the larger the collector's fixed cost
// looks. What is pinned is the disarmed cost (below); the armed cost is
// tracked by `go run ./benchmark -compare`.
func TestKeyVizOverheadGate(t *testing.T) {
	enabled, disabled := KeyVizOverhead(Options{Seed: 1}, 3, 3000)
	if disabled.OpsPerSec() <= 0 || enabled.OpsPerSec() <= 0 {
		t.Fatalf("measured no throughput: enabled %+v disabled %+v", enabled, disabled)
	}
	t.Logf("keyviz overhead: enabled %.0f ops/s, disabled %.0f ops/s (ratio %.3f)",
		enabled.OpsPerSec(), disabled.OpsPerSec(), enabled.OpsPerSec()/disabled.OpsPerSec())
}

// TestKeyVizDisarmedSampleCost pins the disarmed hot-path contract: a
// sample against a disabled collector is one atomic load — zero
// allocations and a handful of nanoseconds even on a loaded CI worker.
func TestKeyVizDisarmedSampleCost(t *testing.T) {
	c := keyviz.New(truetime.NewManual(1000, 0), keyviz.Options{})
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Sample(keyviz.SrcTablet, 1, keyviz.OpRead, 1, 0, 0)
		}
	})
	if allocs := res.AllocsPerOp(); allocs != 0 {
		t.Fatalf("disarmed Sample allocates %d times per op, want 0", allocs)
	}
	if perOp := res.NsPerOp(); perOp > 50 {
		t.Fatalf("disarmed Sample costs %dns/op, want <= 50ns (single atomic load)", perOp)
	}
	t.Logf("disarmed Sample: %dns/op, %d allocs/op", res.NsPerOp(), res.AllocsPerOp())
}
