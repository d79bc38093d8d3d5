package chaos

import (
	"flag"
	"os"
	"strings"
	"testing"

	"firestore/internal/cluster"
	"firestore/internal/fault"
)

// seed replays the scenarios at another seed than their canonical ones:
//
//	go test ./internal/chaos -run 'TestAllScenarios/<name>$' -args -seed N
var seed = flag.Int64("seed", 0, "run every scenario at this seed (0: each test's canonical seed)")

// TestMain lets the cluster scenarios re-exec this test binary as
// tablet-server child processes.
func TestMain(m *testing.M) {
	cluster.MaybeRunTabletChild()
	os.Exit(m.Run())
}

// runScenario runs the named scenario at canonical, or at -seed if
// given, and fails the test with every invariant that did not hold.
func runScenario(t *testing.T, name string, canonical int64) *Report {
	t.Helper()
	sc, ok := Find(name)
	if !ok {
		t.Fatalf("unknown scenario %q", name)
	}
	s := canonical
	if *seed != 0 {
		s = *seed
	}
	rep, err := Run(sc, Options{Seed: s, Dir: t.TempDir(), Log: t.Logf})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	t.Logf("%s (seed %d): %d commits, %d commit errors, out_of_syncs=%d requeries=%d", name, s, rep.Commits, rep.CommitErrs, rep.OutOfSyncs, rep.Requeries)
	for _, inv := range rep.Invariants {
		if inv.OK {
			t.Logf("ok   %-24s %s", inv.Name, inv.Detail)
		} else {
			t.Errorf("%s: invariant %s failed: %s", name, inv.Name, inv.Detail)
		}
	}
	if !rep.Pass {
		t.Fatalf("%s: scenario failed under seed %d", name, s)
	}
	return rep
}

// TestChaosSmoke is the CI smoke gate (make chaos RUN=Smoke): two short
// fixed-seed scenarios, one that must trip the out-of-sync/requery
// recovery path and one that exercises queue redelivery.
func TestChaosSmoke(t *testing.T) {
	rep := runScenario(t, "accept-blackhole", 7)
	if rep.OutOfSyncs == 0 {
		t.Errorf("accept-blackhole: expected out-of-sync resets, got none")
	}
	if rep.Requeries == 0 {
		t.Errorf("accept-blackhole: expected frontend requeries, got none")
	}

	rep = runScenario(t, "queue-redelivery", 7)
	if rep.Injected[fault.TriggersDeliver] == 0 {
		t.Errorf("queue-redelivery: duplicate fault never fired")
	}
}

// TestChaosRecovery is the durable recovery gate (make chaos RUN=Recovery):
// fixed-seed scenarios that crash tablet engines mid-commit and flake the
// WAL/flush paths. Each must WAL-replay to zero validation divergence,
// keep strong reads externally consistent, push a dataset larger than the
// memtable cap through flush (+ compaction), and survive a full region
// close + reopen from disk.
func TestChaosRecovery(t *testing.T) {
	rep := runScenario(t, "tablet-crash-commit", 7)
	if rep.Recoveries == 0 {
		t.Errorf("tablet-crash-commit: no engine recoveries under seed 7")
	}
	if rep.Flushes == 0 || rep.Compactions == 0 {
		t.Errorf("tablet-crash-commit: flushes=%d compactions=%d, want both > 0", rep.Flushes, rep.Compactions)
	}

	rep = runScenario(t, "wal-fsync-flake", 7)
	if rep.Recoveries == 0 {
		t.Errorf("wal-fsync-flake: fsync faults never forced a recovery")
	}

	runScenario(t, "segment-flush-flake", 7)
}

// TestChaosCluster is the multi-process gate (make chaos RUN=Cluster rides
// on it too): tablet-server child processes host the storage, the wire
// partitions, and one child is SIGKILLed mid-commit and respawned. Both
// scenarios must recover remote engines and keep every invariant.
func TestChaosCluster(t *testing.T) {
	rep := runScenario(t, "net-partition", 7)
	if rep.Injected[fault.TransportPartition] == 0 {
		t.Errorf("net-partition: partition fault never fired")
	}
	if rep.Recoveries == 0 {
		t.Errorf("net-partition: partitions never forced an engine recovery")
	}

	rep = runScenario(t, "tablet-proc-kill", 7)
	if rep.Recoveries == 0 {
		t.Errorf("tablet-proc-kill: SIGKILL never forced an engine recovery")
	}
	if rep.CommitErrs == 0 {
		t.Logf("tablet-proc-kill: no commit errors (kill window may not have overlapped a commit)")
	}
}

// TestAllScenarios runs the full catalog: every named scenario's
// invariants must hold under seed 42 (or -seed).
func TestAllScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("full catalog is slow; `make chaos` covers the critical paths")
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			runScenario(t, sc.Name, 42)
		})
	}
}

// TestScheduleDeterminism proves the acceptance property directly: the
// same seed renders the same fault schedule for every scenario, and a
// different seed renders a different one for probabilistic sites.
func TestScheduleDeterminism(t *testing.T) {
	for _, sc := range scenarios {
		for _, spec := range sc.Faults {
			a := fault.Schedule(11, spec, 256)
			b := fault.Schedule(11, spec, 256)
			if a != b {
				t.Fatalf("%s/%s: same seed produced different schedules:\n%s\n%s",
					sc.Name, spec.Site, a, b)
			}
			if spec.Prob > 0 && spec.Prob < 1 {
				c := fault.Schedule(12, spec, 256)
				if a == c {
					t.Errorf("%s/%s: seeds 11 and 12 produced identical schedules", sc.Name, spec.Site)
				}
			}
		}
	}
}

// TestRunReportsSchedules checks a run's report carries the per-site
// schedule fingerprints and injected counts for every armed fault.
func TestRunReportsSchedules(t *testing.T) {
	sc, _ := Find("quorum-storm")
	rep, err := Run(sc, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	fp, ok := rep.Schedules[fault.SpannerCommitQuorum]
	if !ok || len(fp) != 64 || strings.Trim(fp, "01") != "" {
		t.Fatalf("schedule fingerprint malformed: %q", fp)
	}
	if !strings.Contains(fp, "1") {
		t.Fatalf("p=0.5 schedule fired nothing in 64 hits: %q", fp)
	}
}

func TestFindUnknown(t *testing.T) {
	if _, ok := Find("no-such-scenario"); ok {
		t.Fatal("Find returned a scenario for an unknown name")
	}
	if len(scenarios) < 6 {
		t.Fatalf("catalog has %d scenarios, acceptance requires >= 6", len(scenarios))
	}
}
