package cluster

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"firestore/internal/status"
)

// Environment variables carrying a tablet-server child's configuration
// across the re-exec boundary.
const (
	envChild  = "FIRESTORE_TABLET_CHILD"
	envJoin   = "FIRESTORE_TABLET_JOIN"
	envName   = "FIRESTORE_TABLET_NAME"
	envDir    = "FIRESTORE_TABLET_DIR"
	envKind   = "FIRESTORE_TABLET_KIND"
	envMemCap = "FIRESTORE_TABLET_MEMCAP"
)

// MaybeRunTabletChild is the re-exec hook: call it first thing in main()
// or TestMain(). If the process was spawned by a Harness (the
// FIRESTORE_TABLET_CHILD environment variable is set), it runs a tablet
// server until the parent releases it and never returns; otherwise it is
// a no-op.
func MaybeRunTabletChild() {
	if os.Getenv(envChild) == "" {
		return
	}
	cfg := TabletServerConfig{
		Name:    os.Getenv(envName),
		Join:    os.Getenv(envJoin),
		DataDir: os.Getenv(envDir),
		Kind:    os.Getenv(envKind),
	}
	if v := os.Getenv(envMemCap); v != "" {
		cfg.MemtableCap, _ = strconv.ParseInt(v, 10, 64)
	}
	if err := runChild(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "tablet child %s: %v\n", cfg.Name, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// runChild serves until stdin closes (the parent exited or released us)
// or the orphan watchdog fires. The join is retried briefly: a respawned
// child can race the coordinator noticing its predecessor's death.
func runChild(cfg TabletServerConfig) error {
	var ts *TabletServer
	var err error
	deadline := time.Now().Add(10 * time.Second)
	for {
		ts, err = NewTabletServer(cfg)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(100 * time.Millisecond)
	}
	defer ts.Close()
	stdinClosed := make(chan struct{})
	go func() {
		io.Copy(io.Discard, os.Stdin) //nolint:errcheck
		close(stdinClosed)
	}()
	select {
	case <-stdinClosed:
	case <-ts.Orphaned():
	}
	return nil
}

// proc is one spawned tablet-server child.
type proc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	done  chan struct{} // closed once Wait returns
}

// Harness spawns tablet-server processes by re-execing the current
// binary (tests and benches call MaybeRunTabletChild from TestMain /
// main) and kills them with SIGKILL for process-level chaos. A respawned
// peer keeps its name and data directory, so it rejoins, recovers its
// WALs, and reclaims its tablets.
type Harness struct {
	coord   *Coordinator
	baseDir string
	kind    string

	// MemtableCap, when > 0, caps each child's durable memtables
	// (storage.Options.MemtableCap). Set it before the first Spawn;
	// chaos scenarios use a tiny cap to force flushes over the wire.
	MemtableCap int64

	mu    sync.Mutex
	procs map[string]*proc
}

// NewHarness returns a harness spawning children of the given engine
// kind that join coord. baseDir roots per-peer data directories
// (ignored for KindMem).
func NewHarness(coord *Coordinator, baseDir, kind string) *Harness {
	if kind == "" {
		kind = KindDisk
	}
	return &Harness{coord: coord, baseDir: baseDir, kind: kind, procs: map[string]*proc{}}
}

// Spawn starts tablet server name in a child process and waits for it to
// join the coordinator. Spawning a previously killed peer again restarts
// it under the same name and data directory; it rejoins, and WAL
// recovery happens lazily as the coordinator re-opens tablets.
func (h *Harness) Spawn(name string) error {
	h.mu.Lock()
	_, running := h.procs[name]
	h.mu.Unlock()
	if running {
		return status.Errorf(status.AlreadyExists, "cluster", "peer %q is already running", name)
	}
	before := time.Now()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		envChild+"=1",
		envJoin+"="+h.coord.Addr(),
		envName+"="+name,
		envDir+"="+filepath.Join(h.baseDir, name),
		envKind+"="+h.kind,
	)
	if h.MemtableCap > 0 {
		cmd.Env = append(cmd.Env, envMemCap+"="+strconv.FormatInt(h.MemtableCap, 10))
	}
	// The child holds our stdin pipe open; closing it (or this process
	// dying) tells the child to exit.
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return status.Wrap(status.Internal, "cluster", err)
	}
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		stdin.Close()
		return status.Wrap(status.Internal, "cluster", err)
	}
	p := &proc{cmd: cmd, stdin: stdin, done: make(chan struct{})}
	go func() {
		cmd.Wait() //nolint:errcheck
		close(p.done)
	}()
	h.mu.Lock()
	h.procs[name] = p
	h.mu.Unlock()
	if err := h.coord.waitForPeerJoin(name, before, 30*time.Second); err != nil {
		h.Kill(name) //nolint:errcheck
		return err
	}
	return nil
}

// Kill delivers SIGKILL to peer name — no shutdown, no fsync, the
// mid-commit crash the chaos scenarios need — and reaps the child. The
// peer's data directory survives for the next Spawn.
func (h *Harness) Kill(name string) error {
	h.mu.Lock()
	p := h.procs[name]
	delete(h.procs, name)
	h.mu.Unlock()
	if p == nil {
		return status.Errorf(status.NotFound, "cluster", "peer %q is not running", name)
	}
	p.cmd.Process.Kill() //nolint:errcheck
	<-p.done
	p.stdin.Close()
	return nil
}

// Close kills every remaining child.
func (h *Harness) Close() {
	h.mu.Lock()
	names := make([]string, 0, len(h.procs))
	for n := range h.procs {
		names = append(names, n)
	}
	h.mu.Unlock()
	for _, name := range names {
		h.Kill(name) //nolint:errcheck
	}
}
