package cluster

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"firestore/internal/storage"
	"firestore/internal/truetime"
)

// TestMain doubles as the tablet-server child entry point: when the
// Harness re-execs this test binary, MaybeRunTabletChild serves until
// released and never reaches m.Run.
func TestMain(m *testing.M) {
	MaybeRunTabletChild()
	os.Exit(m.Run())
}

// startCluster runs a coordinator plus n in-process tablet servers.
func startCluster(t *testing.T, n int, kind string) (*Coordinator, []*TabletServer) {
	t.Helper()
	coord, err := NewCoordinator(CoordinatorConfig{})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	t.Cleanup(coord.Close)
	servers := make([]*TabletServer, n)
	for i := 0; i < n; i++ {
		cfg := TabletServerConfig{
			Name: string(rune('a' + i)),
			Join: coord.Addr(),
			Kind: kind,
		}
		if kind == KindDisk {
			cfg.DataDir = filepath.Join(t.TempDir(), cfg.Name)
			cfg.MemtableCap = 1 << 10 // small enough that tests flush segments
		}
		ts, err := NewTabletServer(cfg)
		if err != nil {
			t.Fatalf("NewTabletServer %d: %v", i, err)
		}
		t.Cleanup(ts.Close)
		servers[i] = ts
	}
	if err := coord.WaitForPeers(n, 5*time.Second); err != nil {
		t.Fatalf("WaitForPeers: %v", err)
	}
	return coord, servers
}

func apply(t *testing.T, e storage.Engine, key, val string, ts truetime.Timestamp) {
	t.Helper()
	err := e.Apply(context.Background(), []storage.Write{{Key: []byte(key), Value: []byte(val)}}, ts)
	if err != nil {
		t.Fatalf("Apply(%s): %v", key, err)
	}
}

func TestRoundRobinAssignment(t *testing.T) {
	coord, _ := startCluster(t, 2, KindMem)
	fac := coord.Factory(0)
	for id := uint64(1); id <= 4; id++ {
		e, err := fac.Open(id, nil, nil)
		if err != nil {
			t.Fatalf("Open(%d): %v", id, err)
		}
		defer e.Close()
	}
	st := coord.Snapshot()
	if len(st.Peers) != 2 {
		t.Fatalf("Snapshot has %d peers, want 2", len(st.Peers))
	}
	for _, p := range st.Peers {
		if len(p.Owned) != 2 {
			t.Fatalf("peer %s owns %d tablets, want 2 (round-robin)", p.Name, len(p.Owned))
		}
	}
}

func TestPeerDeathMarksCrashedAndReopenRecovers(t *testing.T) {
	coord, servers := startCluster(t, 1, KindDisk)
	dir := servers[0].cfg.DataDir
	fac := coord.Factory(0)
	e, err := fac.Open(1, nil, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := e.Commission(); err != nil {
		t.Fatalf("Commission: %v", err)
	}
	apply(t, e, "k", "v", 7)

	// The peer dies (in-process stand-in: close it). The engine's next
	// touch must fail and mark it crashed — that is the signal spanner's
	// recovery loop keys on.
	servers[0].Close()
	if _, _, ok := e.Get([]byte("k"), 100); ok {
		t.Fatal("Get succeeded against a dead peer")
	}
	if !e.Crashed() {
		t.Fatal("engine not marked crashed after peer death")
	}
	e.Close()

	// Rejoin under the same name and directory: recovery's factory.Open
	// must land on the new incarnation and replay the WAL.
	ts2, err := NewTabletServer(TabletServerConfig{
		Name: "a", Join: coord.Addr(), Kind: KindDisk, DataDir: dir,
	})
	if err != nil {
		t.Fatalf("restart tablet server: %v", err)
	}
	t.Cleanup(ts2.Close)

	e2, err := fac.Open(1, nil, nil)
	if err != nil {
		t.Fatalf("re-Open: %v", err)
	}
	defer e2.Close()
	v, _, ok := e2.Get([]byte("k"), 100)
	if !ok || string(v) != "v" {
		t.Fatalf("Get after recovery = %q, %v; want v, true", v, ok)
	}
	if ld := e2.LastDurable(); ld < 7 {
		t.Fatalf("LastDurable after recovery = %d, want >= 7", ld)
	}
}

func TestMoveTablet(t *testing.T) {
	coord, _ := startCluster(t, 2, KindDisk)
	fac := coord.Factory(0)
	e, err := fac.Open(1, nil, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := e.Commission(); err != nil {
		t.Fatalf("Commission: %v", err)
	}
	apply(t, e, "x", "1", 5)
	apply(t, e, "y", "2", 6)
	source, _ := coord.ownerOf(dbTablet{0, 1})
	target := "b"
	if source == "b" {
		target = "a"
	}

	if err := coord.MoveTablet(0, 1, target); err != nil {
		t.Fatalf("MoveTablet: %v", err)
	}
	if !e.Crashed() {
		t.Fatal("old engine not poisoned after handoff")
	}
	e.Close()

	// The recovery path re-opens via the factory and must land on the
	// target with every version intact.
	e2, err := fac.Open(1, nil, nil)
	if err != nil {
		t.Fatalf("Open after move: %v", err)
	}
	defer e2.Close()
	if owner, _ := coord.ownerOf(dbTablet{0, 1}); owner != target {
		t.Fatalf("owner after move = %q, want %q", owner, target)
	}
	for key, want := range map[string]string{"x": "1", "y": "2"} {
		v, _, ok := e2.Get([]byte(key), 100)
		if !ok || string(v) != want {
			t.Fatalf("Get(%s) after move = %q, %v; want %q", key, v, ok, want)
		}
	}
	apply(t, e2, "z", "3", 9)

	// The source's durable state was destroyed: only the target lists
	// the tablet.
	metas, err := fac.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(metas) != 1 || metas[0].ID != 1 {
		t.Fatalf("List after move = %+v, want exactly tablet 1", metas)
	}
}

func TestMoveTabletValidation(t *testing.T) {
	coord, _ := startCluster(t, 2, KindMem)
	fac := coord.Factory(0)
	e, err := fac.Open(1, nil, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer e.Close()
	if err := coord.MoveTablet(0, 1, "nope"); err == nil {
		t.Fatal("MoveTablet to unknown peer succeeded")
	}
	if err := coord.MoveTablet(0, 99, "a"); err == nil {
		t.Fatal("MoveTablet of unowned tablet succeeded")
	}
	owner, _ := coord.ownerOf(dbTablet{0, 1})
	if err := coord.MoveTablet(0, 1, owner); err != nil {
		t.Fatalf("MoveTablet onto current owner should be a no-op, got %v", err)
	}
}

func TestSealedEngineHealsOnReopen(t *testing.T) {
	coord, _ := startCluster(t, 1, KindMem)
	fac := coord.Factory(0)
	e, err := fac.Open(1, nil, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	apply(t, e, "k", "v", 3)

	// Seal directly (as an aborted handoff would leave it): the engine
	// starts failing, and the recovery re-open supersedes the sealed
	// handle with a serving one.
	if _, err := call(context.Background(), coord.peer("a"), mSeal, dbTablet{0, 1}); err != nil {
		t.Fatalf("seal: %v", err)
	}
	if err := e.Apply(context.Background(), []storage.Write{{Key: []byte("k2"), Value: []byte("v2")}}, 4); err == nil {
		t.Fatal("Apply against sealed engine succeeded")
	}
	if !e.Crashed() {
		t.Fatal("engine not crashed after sealed apply")
	}
	e.Close()

	e2, err := fac.Open(1, nil, nil)
	if err != nil {
		t.Fatalf("re-Open: %v", err)
	}
	defer e2.Close()
	apply(t, e2, "k2", "v2", 5)
	if v, _, ok := e2.Get([]byte("k"), 10); !ok || string(v) != "v" {
		t.Fatalf("Get(k) after heal = %q, %v", v, ok)
	}
}

func TestColdRestartListAndAdopt(t *testing.T) {
	baseA, baseB := t.TempDir(), t.TempDir()
	run := func(fn func(coord *Coordinator)) {
		coord, err := NewCoordinator(CoordinatorConfig{})
		if err != nil {
			t.Fatalf("NewCoordinator: %v", err)
		}
		defer coord.Close()
		tsA, err := NewTabletServer(TabletServerConfig{Name: "a", Join: coord.Addr(), Kind: KindDisk, DataDir: baseA})
		if err != nil {
			t.Fatalf("tablet server a: %v", err)
		}
		defer tsA.Close()
		tsB, err := NewTabletServer(TabletServerConfig{Name: "b", Join: coord.Addr(), Kind: KindDisk, DataDir: baseB})
		if err != nil {
			t.Fatalf("tablet server b: %v", err)
		}
		defer tsB.Close()
		if err := coord.WaitForPeers(2, 5*time.Second); err != nil {
			t.Fatalf("WaitForPeers: %v", err)
		}
		fn(coord)
	}

	// First life: two tablets, one per peer (round-robin).
	run(func(coord *Coordinator) {
		fac := coord.Factory(0)
		e1, err := fac.Open(1, nil, []byte("m"))
		if err != nil {
			t.Fatalf("Open(1): %v", err)
		}
		defer e1.Close()
		e2, err := fac.Open(2, []byte("m"), nil)
		if err != nil {
			t.Fatalf("Open(2): %v", err)
		}
		defer e2.Close()
		for _, e := range []storage.Engine{e1, e2} {
			if err := e.Commission(); err != nil {
				t.Fatalf("Commission: %v", err)
			}
		}
		apply(t, e1, "aaa", "low", 5)
		apply(t, e2, "zzz", "high", 5)
	})

	// Second life: a fresh coordinator (empty assignment table) must
	// discover both tablets via List, adopt them onto the peers that
	// hold their WALs, and recover the rows.
	run(func(coord *Coordinator) {
		fac := coord.Factory(0)
		metas, err := fac.List()
		if err != nil {
			t.Fatalf("List: %v", err)
		}
		if len(metas) != 2 || metas[0].ID != 1 || metas[1].ID != 2 {
			t.Fatalf("List = %+v, want tablets 1 then 2 sorted by start", metas)
		}
		for _, m := range metas {
			e, err := fac.Open(m.ID, m.Start, m.End)
			if err != nil {
				t.Fatalf("Open(%d): %v", m.ID, err)
			}
			defer e.Close()
			key, want := "aaa", "low"
			if m.ID == 2 {
				key, want = "zzz", "high"
			}
			if v, _, ok := e.Get([]byte(key), 10); !ok || string(v) != want {
				t.Fatalf("tablet %d Get(%s) = %q, %v; want %q", m.ID, key, v, ok, want)
			}
		}
	})
}

func TestHarnessSpawnKillRespawn(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	coord, err := NewCoordinator(CoordinatorConfig{})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	t.Cleanup(coord.Close)
	h := NewHarness(coord, t.TempDir(), KindDisk)
	t.Cleanup(h.Close)
	if err := h.Spawn("p1"); err != nil {
		t.Fatalf("Spawn: %v", err)
	}

	fac := coord.Factory(0)
	e, err := fac.Open(1, nil, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := e.Commission(); err != nil {
		t.Fatalf("Commission: %v", err)
	}
	apply(t, e, "durable", "yes", 11)

	// SIGKILL: no shutdown path runs in the child. The WAL already holds
	// the acknowledged apply.
	if err := h.Kill("p1"); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	if _, _, ok := e.Get([]byte("durable"), 100); ok {
		t.Fatal("Get succeeded against a SIGKILLed peer")
	}
	if !e.Crashed() {
		t.Fatal("engine not crashed after SIGKILL")
	}
	e.Close()

	if err := h.Spawn("p1"); err != nil {
		t.Fatalf("respawn: %v", err)
	}
	e2, err := fac.Open(1, nil, nil)
	if err != nil {
		t.Fatalf("Open after respawn: %v", err)
	}
	defer e2.Close()
	v, _, ok := e2.Get([]byte("durable"), 100)
	if !ok || string(v) != "yes" {
		t.Fatalf("Get after respawn = %q, %v; want yes, true (WAL replay)", v, ok)
	}
	st := coord.Snapshot()
	if len(st.Peers) != 1 || st.Peers[0].Pool.Reconnects == 0 {
		t.Fatalf("Snapshot after respawn = %+v; want one peer with reconnects > 0", st.Peers)
	}
}
