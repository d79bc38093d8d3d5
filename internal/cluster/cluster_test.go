package cluster

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"firestore/internal/fault"
	"firestore/internal/status"
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
func startCluster(t testing.TB, n int, kind string) (*Coordinator, []*TabletServer) {
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

// TestHeartbeatCrossesTheFaultPlane: a tablet server reaches the
// coordinator through a transport.Pool, so an armed transport.partition
// fails its heartbeat even with no engine traffic, and the peer re-joins.
func TestHeartbeatCrossesTheFaultPlane(t *testing.T) {
	coord, _ := startCluster(t, 1, KindMem)
	fault.Reset()
	t.Cleanup(fault.Reset)
	armed := time.Now()
	if err := fault.Enable(fault.Spec{Site: fault.TransportPartition, Mode: fault.ModeError, MaxCount: 1}); err != nil {
		t.Fatal(err)
	}
	if err := coord.waitForPeerJoin("a", armed, 2*time.Second); err != nil {
		t.Errorf("no re-join after a partitioned heartbeat: %v", err)
	}
	if n := fault.Injected(fault.TransportPartition); n != 1 {
		t.Errorf("transport.partition fired %d times, want 1", n)
	}
}

// TestRejoinAfterCoordinatorRestart: a coordinator that comes back on the
// same address learns its tablet server again at the next heartbeat.
func TestRejoinAfterCoordinatorRestart(t *testing.T) {
	coord, _ := startCluster(t, 1, KindMem)
	coord.Close()
	next, err := NewCoordinator(CoordinatorConfig{Listen: coord.Addr()})
	if err != nil {
		t.Fatalf("NewCoordinator on the same address: %v", err)
	}
	t.Cleanup(next.Close)
	start := time.Now()
	if err := next.WaitForPeers(1, 5*time.Second); err != nil {
		t.Fatalf("WaitForPeers: %v", err)
	}
	// One tick, then the failed heartbeat and the join it triggers.
	if took := time.Since(start); took > heartbeatEvery*3/2 {
		t.Fatalf("re-join took %v, want one heartbeat period (%v)", took, heartbeatEvery)
	}
}

// TestMoveTablet moves a tablet whose export does not fit one chunk:
// 300 chains, each with an old version, some ending in a tombstone.
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
	m := fillForMove(t, e)
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
	checkAgainst(t, e2, m, "after the move")
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

// fillForMove writes 300 keys twice and deletes every ninth, and returns
// the model of what it wrote.
func fillForMove(t *testing.T, e storage.Engine) model {
	t.Helper()
	m := model{}
	ts := truetime.Timestamp(100)
	for round := 0; round < 3; round++ {
		for i := 0; i < 300; i++ {
			w := storage.Write{Key: []byte(fmt.Sprintf("row-%03d", i)), Value: []byte(fmt.Sprintf("v%d.%d", round, i))}
			if round == 2 {
				if i%9 != 0 {
					continue
				}
				w = storage.Write{Key: w.Key, Delete: true}
			}
			ts++
			if err := e.Apply(context.Background(), []storage.Write{w}, ts); err != nil {
				t.Fatalf("Apply(%s@%d): %v", w.Key, ts, err)
			}
			m[string(w.Key)] = append(m[string(w.Key)], storage.Version{TS: ts, Value: w.Value, Deleted: w.Delete})
		}
	}
	return m
}

// checkAgainst compares e with the model: every chain, and a full scan at
// timestamps across the history.
func checkAgainst(t *testing.T, e storage.Engine, m model, when string) {
	t.Helper()
	var got []storage.Chain
	e.AscendChains(nil, nil, func(c storage.Chain) bool { got = append(got, c); return true })
	if want := m.chains(nil, nil); !sameChains(got, want) {
		t.Fatalf("%s: engine holds %d chains that differ from the model's %d", when, len(got), len(want))
	}
	for _, ts := range []truetime.Timestamp{100, 250, 500, 800, truetime.Max} {
		var rows []storage.Row
		e.Scan(nil, nil, ts, false, func(r storage.Row) bool { rows = append(rows, r); return true })
		if want := m.rows(nil, nil, ts, false); !sameRows(rows, want) {
			t.Fatalf("%s: scan @%d: %d rows, want %d; first difference at %d", when, ts, len(rows), len(want), firstDiff(rows, want))
		}
	}
}

// failingIngests wraps a tablet server's factory so that one IngestChains
// on the engines it hosts fails: the one after left more succeeded.
type failingIngests struct {
	storage.Factory
	left atomic.Int64
}

func (f *failingIngests) Open(id uint64, start, end []byte) (storage.Engine, error) {
	e, err := f.Factory.Open(id, start, end)
	if err != nil {
		return nil, err
	}
	return &failingIngestEngine{Engine: e, fac: f}, nil
}

type failingIngestEngine struct {
	storage.Engine
	fac *failingIngests
}

func (e *failingIngestEngine) IngestChains(chains []storage.Chain) error {
	if e.fac.left.Add(-1) == -1 {
		return status.New(status.Unavailable, "test", "injected ingest failure")
	}
	return e.Engine.IngestChains(chains)
}

// TestMoveTabletAbortedMidCopy: the target fails its second ingest. The
// move reports the error and changes nothing: the sealed source heals on
// the re-open the abort forces, serving everything and taking writes, and
// a second move — over the pending directory the first left on the target
// — succeeds.
func TestMoveTabletAbortedMidCopy(t *testing.T) {
	coord, servers := startCluster(t, 2, KindDisk)
	fac := coord.Factory(0)
	e, err := fac.Open(1, nil, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := e.Commission(); err != nil {
		t.Fatalf("Commission: %v", err)
	}
	m := fillForMove(t, e)
	source, _ := coord.ownerOf(dbTablet{0, 1})
	target := servers[1]
	if source == "b" {
		target = servers[0]
	}
	wrapFactory(t, target, 0, func(inner storage.Factory) storage.Factory {
		failing := &failingIngests{Factory: inner}
		failing.left.Store(1)
		return failing
	})

	if err := coord.MoveTablet(0, 1, target.cfg.Name); err == nil {
		t.Fatal("MoveTablet succeeded although the target failed an ingest")
	}
	if owner, _ := coord.ownerOf(dbTablet{0, 1}); owner != source {
		t.Fatalf("owner after the aborted move = %q, want %q still", owner, source)
	}
	if !e.Crashed() {
		t.Fatal("the abort did not send the live engine down the recovery path")
	}
	e.Close()
	e2, err := fac.Open(1, nil, nil)
	if err != nil {
		t.Fatalf("re-Open after the aborted move: %v", err)
	}
	checkAgainst(t, e2, m, "after the aborted move")
	apply(t, e2, "row-000", "back", 900)
	m["row-000"] = append(m["row-000"], storage.Version{TS: 900, Value: []byte("back")})

	if err := coord.MoveTablet(0, 1, target.cfg.Name); err != nil {
		t.Fatalf("second MoveTablet: %v", err)
	}
	e2.Close()
	e3, err := fac.Open(1, nil, nil)
	if err != nil {
		t.Fatalf("Open after the second move: %v", err)
	}
	defer e3.Close()
	if owner, _ := coord.ownerOf(dbTablet{0, 1}); owner != target.cfg.Name {
		t.Fatalf("owner after the second move = %q, want %q", owner, target.cfg.Name)
	}
	checkAgainst(t, e3, m, "after the second move")
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
