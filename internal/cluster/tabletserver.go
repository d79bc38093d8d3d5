package cluster

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"firestore/internal/status"
	"firestore/internal/storage"
	"firestore/internal/transport"
)

// ErrStaleHandle reports an engine RPC addressed to a handle that was
// superseded (the tablet was re-opened, moved away, or sealed for
// handoff). The coordinator-side engine treats it like a crash: discard,
// re-open through the factory, retry.
var ErrStaleHandle = status.New(status.FailedPrecondition, "cluster", "stale engine handle")

// ErrSealed reports a mutation against an engine sealed for handoff.
var ErrSealed = status.New(status.FailedPrecondition, "cluster", "engine sealed for handoff")

var errClosing = status.New(status.Unavailable, "cluster", "tablet server closing")

// TabletServerConfig configures one tablet-server process (or in-process
// instance, for benchmarks).
type TabletServerConfig struct {
	// Name is the peer's stable identity. A respawned process that keeps
	// its Name and DataDir reclaims its tablets (WAL recovery needs the
	// same directory).
	Name string
	// Join is the coordinator's transport address.
	Join string
	// Listen is the engine-plane listen address (default "127.0.0.1:0").
	Listen string
	// DataDir roots this peer's durable state; pool database i lives
	// under DataDir/db-i. Required for KindDisk.
	DataDir string
	// Kind selects the hosted engine kind: KindDisk (default) or KindMem.
	// Mem engines survive reconnects (the process keeps them) but not
	// process death.
	Kind string
	// MemtableCap tunes hosted disk engines (storage.Options).
	MemtableCap int64
}

// hostedEngine is one engine a tablet server serves, addressed by handle.
type hostedEngine struct {
	dbTablet
	eng    storage.Engine
	sealed atomic.Bool // set for handoff, never cleared: a re-open replaces the handle
}

// TabletServer hosts storage engines behind the wire protocol: the
// "storage half" of a Spanner tablet server. All row durability (WAL,
// memtable, segments) lives here; MVCC, locks, and 2PC stay with the
// coordinator.
type TabletServer struct {
	cfg  TabletServerConfig
	srv  *transport.Server
	pool *transport.Pool // to the coordinator, its one peer
	addr string

	mu         sync.Mutex
	factories  map[int]storage.Factory
	handles    map[uint64]*hostedEngine
	byTablet   map[dbTablet]uint64
	nextHandle uint64
	closed     bool

	stop     chan struct{}
	stopOnce sync.Once
	orphaned chan struct{}
	wg       sync.WaitGroup
}

// NewTabletServer builds and starts a tablet server: it listens, joins
// the coordinator, and begins heartbeating.
func NewTabletServer(cfg TabletServerConfig) (*TabletServer, error) {
	if cfg.Kind == "" {
		cfg.Kind = KindDisk
	}
	if cfg.Kind != KindDisk && cfg.Kind != KindMem {
		return nil, status.Errorf(status.InvalidArgument, "cluster", "unknown engine kind %q", cfg.Kind)
	}
	if cfg.Kind == KindDisk && cfg.DataDir == "" {
		return nil, status.New(status.InvalidArgument, "cluster", "disk tablet server needs DataDir")
	}
	if cfg.Name == "" {
		return nil, status.New(status.InvalidArgument, "cluster", "tablet server needs a Name")
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	ts := &TabletServer{
		cfg:       cfg,
		srv:       transport.NewServer(),
		pool:      transport.NewPool(nil),
		factories: map[int]storage.Factory{},
		handles:   map[uint64]*hostedEngine{},
		byTablet:  map[dbTablet]uint64{},
		stop:      make(chan struct{}),
		orphaned:  make(chan struct{}),
	}
	ts.registerHandlers()
	addr, err := ts.srv.Listen(cfg.Listen)
	if err != nil {
		return nil, err
	}
	ts.addr = addr
	ts.pool.SetPeer(coordinator, cfg.Join)
	// Operators start tablet servers and the coordinator in any order, and
	// a respawned process can race the coordinator noticing its
	// predecessor's death, so the first join is retried on a retryable
	// failure for a bounded window, over the one listener.
	ctx, cancel := context.WithTimeout(context.Background(), joinWindow)
	defer cancel()
	var last error
	if status.Retry(ctx, math.MaxInt, func() error { last = ts.join(); return last }) != nil {
		ts.pool.Close()
		ts.srv.Close()
		return nil, fmt.Errorf("joining coordinator %s: %w", cfg.Join, last)
	}
	ts.wg.Add(1)
	go ts.heartbeatLoop()
	return ts, nil
}

// Addr returns the engine-plane address peers dial.
func (ts *TabletServer) Addr() string { return ts.addr }

// Orphaned is closed when the coordinator has been unreachable long
// enough that a child process should exit rather than linger after its
// parent died.
func (ts *TabletServer) Orphaned() <-chan struct{} { return ts.orphaned }

// coordinator is the pool's name for the coordinator.
const coordinator = "coordinator"

// join registers this peer with the coordinator.
func (ts *TabletServer) join() error {
	return callCoordinator(ts, mJoin, joinReq{Name: ts.cfg.Name, Addr: ts.addr, Kind: ts.cfg.Kind})
}

// callCoordinator performs m against the coordinator, bounded as a dial is.
func callCoordinator[Req any](ts *TabletServer, m method[Req, none], req Req) error {
	ctx, cancel := context.WithTimeout(context.Background(), transport.DialTimeout)
	defer cancel()
	_, err := call(ctx, endpoint{pool: ts.pool, peer: coordinator}, m, req)
	return err
}

// joinWindow bounds how long NewTabletServer retries its first join.
const joinWindow = 15 * time.Second

// heartbeatEvery is the control-plane heartbeat period. orphanAfter is
// how long heartbeats may fail before Orphaned fires; it keeps
// SIGKILLed-coordinator children from leaking in test runs.
const (
	heartbeatEvery = 250 * time.Millisecond
	orphanAfter    = 15 * time.Second
)

func (ts *TabletServer) heartbeatLoop() {
	defer ts.wg.Done()
	ticker := time.NewTicker(heartbeatEvery)
	defer ticker.Stop()
	var failingSince time.Time
	for {
		select {
		case <-ts.stop:
			return
		case <-ticker.C:
		}
		if err := ts.heartbeat(); err != nil {
			if failingSince.IsZero() {
				failingSince = time.Now()
			} else if time.Since(failingSince) > orphanAfter {
				close(ts.orphaned) // once: the loop ends here
				return
			}
			// The coordinator may have restarted: re-join so it relearns
			// our address.
			ts.join() //nolint:errcheck // retried next tick
			continue
		}
		failingSince = time.Time{}
	}
}

func (ts *TabletServer) heartbeat() error {
	ts.mu.Lock()
	n := len(ts.byTablet)
	ts.mu.Unlock()
	return callCoordinator(ts, mHeartbeat, heartbeatReq{Name: ts.cfg.Name, Tablets: n})
}

// Close stops heartbeats, the server, and every hosted engine.
func (ts *TabletServer) Close() {
	ts.stopOnce.Do(func() { close(ts.stop) })
	ts.wg.Wait()
	ts.pool.Close()
	ts.srv.Close()
	ts.mu.Lock()
	handles := ts.handles
	ts.handles = map[uint64]*hostedEngine{}
	ts.byTablet = map[dbTablet]uint64{}
	ts.closed = true
	ts.mu.Unlock()
	for _, h := range handles {
		h.eng.Close()
	}
}

// factory returns (creating lazily) the storage factory for pool
// database db.
func (ts *TabletServer) factory(db int) (storage.Factory, error) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if f := ts.factories[db]; f != nil {
		return f, nil
	}
	var f storage.Factory = &stickyMemFactory{engines: map[uint64]*storage.Mem{}}
	if ts.cfg.Kind == KindDisk {
		var err error
		f, err = storage.NewDiskFactory(
			filepath.Join(ts.cfg.DataDir, fmt.Sprintf("db-%d", db)),
			storage.Options{MemtableCap: ts.cfg.MemtableCap},
		)
		if err != nil {
			return nil, err
		}
	}
	ts.factories[db] = f
	return f, nil
}

// stickyMemFactory keeps mem engines alive across re-opens: a reconnect
// after a transient network failure must not wipe an in-memory tablet
// (the process didn't die, only the connection did).
type stickyMemFactory struct {
	mu      sync.Mutex
	engines map[uint64]*storage.Mem
}

func (f *stickyMemFactory) Open(id uint64, start, end []byte) (storage.Engine, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if e := f.engines[id]; e != nil {
		return e, nil
	}
	e := storage.NewMem()
	f.engines[id] = e
	return e, nil
}

func (f *stickyMemFactory) List() ([]storage.TabletMeta, error) { return nil, nil }

func (f *stickyMemFactory) Destroy(id uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.engines, id)
	return nil
}

// lookup resolves a live handle; a sealed engine resolves only for the
// methods it may still serve.
func (ts *TabletServer) lookup(h uint64, sealedOK bool) (*hostedEngine, error) {
	ts.mu.Lock()
	he := ts.handles[h]
	ts.mu.Unlock()
	if he == nil {
		return nil, ErrStaleHandle
	}
	if !sealedOK && he.sealed.Load() {
		return nil, ErrSealed
	}
	return he, nil
}

// unhostLocked forgets handle h and returns its engine (nil if h is
// stale) for the caller to Close once ts.mu is released: a Disk close
// waits on flush and compaction, and every RPC's handle lookup needs
// ts.mu.
func (ts *TabletServer) unhostLocked(h uint64) *hostedEngine {
	he := ts.handles[h]
	if he != nil {
		delete(ts.handles, h)
		if ts.byTablet[he.dbTablet] == h {
			delete(ts.byTablet, he.dbTablet)
		}
	}
	return he
}

func (ts *TabletServer) registerHandlers() {
	handle(ts.srv, mOpen, ts.open)
	handleEngine(ts, mGet, func(_ context.Context, he *hostedEngine, req getReq) (r storage.BatchGet, _ error) {
		r.Value, r.TS, r.OK = he.eng.Get(req.Key, req.TS)
		return r, nil
	})
	handleEngine(ts, mGetBatch, func(_ context.Context, he *hostedEngine, req getBatchReq) (getBatchResp, error) {
		results := make([]storage.BatchGet, len(req.Keys))
		for i, key := range req.Keys {
			r := &results[i]
			r.Value, r.TS, r.OK = he.eng.Get(key, req.TS)
		}
		return getBatchResp{Results: results}, nil
	})
	handleEngine(ts, mScan, func(_ context.Context, he *hostedEngine, req scanReq) (resp scanResp, _ error) {
		if req.Limit < 1 || req.Limit > storage.MaxScanChunk {
			return resp, status.Errorf(status.InvalidArgument, "cluster", "scan limit %d outside [1, %d]", req.Limit, storage.MaxScanChunk)
		}
		size := 0
		resp.More = !he.eng.Scan(req.Lo, req.Hi, req.TS, false, func(r storage.Row) bool {
			resp.Rows = append(resp.Rows, r)
			size += len(r.Key) + len(r.Value)
			return len(resp.Rows) < req.Limit && size < storage.MaxScanBytes
		})
		return resp, nil
	})
	handleEngine(ts, mApply, func(ctx context.Context, he *hostedEngine, req applyReq) (none, error) {
		return none{}, he.eng.Apply(ctx, req.Writes, req.TS)
	})
	handleEngine(ts, mKeyAt, func(_ context.Context, he *hostedEngine, req keyAtReq) (resp keyAtResp, _ error) {
		resp.Key, resp.OK = he.eng.KeyAt(req.I)
		return resp, nil
	})
	handleEngine(ts, mChains, func(_ context.Context, he *hostedEngine, req scanReq) (resp chainsResp, _ error) {
		if req.Limit < 1 || req.Limit > storage.MaxScanChunk {
			return resp, status.Errorf(status.InvalidArgument, "cluster", "chains limit %d outside [1, %d]", req.Limit, storage.MaxScanChunk)
		}
		size := 0
		he.eng.AscendChains(req.Lo, req.Hi, func(c storage.Chain) bool {
			resp.Chains = append(resp.Chains, c)
			size += c.Bytes()
			resp.More = len(resp.Chains) == req.Limit || size >= storage.MaxScanBytes
			return !resp.More
		})
		return resp, nil
	})
	handleEngine(ts, mIngest, func(_ context.Context, he *hostedEngine, req ingestReq) (none, error) {
		return none{}, he.eng.IngestChains(req.Chains)
	})
	handleEngine(ts, mSetBounds, func(_ context.Context, he *hostedEngine, req setBoundsReq) (none, error) {
		return none{}, he.eng.SetBounds(req.Start, req.End)
	})
	handleEngine(ts, mCommission, func(_ context.Context, he *hostedEngine, _ handleReq) (none, error) {
		return none{}, he.eng.Commission()
	})
	handleEngine(ts, mStats, func(_ context.Context, he *hostedEngine, _ handleReq) (statsResp, error) {
		return statsResp{Stats: he.eng.Stats()}, nil
	})
	handle(ts.srv, mCloseEng, func(_ context.Context, req handleReq) (none, error) {
		ts.mu.Lock()
		he := ts.unhostLocked(req.H)
		ts.mu.Unlock()
		if he == nil {
			return none{}, nil // closing a stale handle is a no-op
		}
		return none{}, he.eng.Close()
	})
	handle(ts.srv, mSeal, func(_ context.Context, dt dbTablet) (handleReq, error) {
		ts.mu.Lock()
		h := ts.byTablet[dt]
		he := ts.handles[h]
		ts.mu.Unlock()
		if he == nil {
			return handleReq{}, ErrStaleHandle
		}
		he.sealed.Store(true)
		return handleReq{h}, nil
	})
	handle(ts.srv, mList, func(_ context.Context, req listReq) (listResp, error) {
		fac, err := ts.factory(req.DB)
		if err != nil {
			return listResp{}, err
		}
		metas, err := fac.List()
		return listResp{Tablets: metas}, err
	})
	handle(ts.srv, mDestroy, func(_ context.Context, dt dbTablet) (none, error) {
		ts.mu.Lock()
		he := ts.unhostLocked(ts.byTablet[dt])
		ts.mu.Unlock()
		if he != nil {
			he.eng.Close()
		}
		fac, err := ts.factory(dt.DB)
		if err != nil {
			return none{}, err
		}
		return none{}, fac.Destroy(dt.Tablet)
	})
}

// open opens (recovering if state exists) tablet (db, id), superseding
// any previous handle for it: the coordinator only re-opens after it
// lost trust in the old one, so the old engine is closed first and stale
// callers get ErrStaleHandle.
func (ts *TabletServer) open(_ context.Context, req openReq) (openResp, error) {
	fac, err := ts.factory(req.DB)
	if err != nil {
		return openResp{}, err
	}
	ts.mu.Lock()
	if ts.closed {
		ts.mu.Unlock()
		return openResp{}, errClosing
	}
	old := ts.unhostLocked(ts.byTablet[req.dbTablet])
	ts.mu.Unlock()
	if old != nil {
		// Mem engines are sticky (the factory hands the same one back);
		// closing one is a no-op. Disk engines quiesce their files so the
		// re-open below replays a clean WAL.
		old.eng.Close()
	}

	eng, err := fac.Open(req.Tablet, req.Start, req.End)
	if err != nil {
		return openResp{}, err
	}
	he := &hostedEngine{dbTablet: req.dbTablet, eng: eng}
	ts.mu.Lock()
	if ts.closed {
		ts.mu.Unlock()
		eng.Close()
		return openResp{}, errClosing
	}
	ts.nextHandle++ // from 1: byTablet's zero value is never a live handle
	h := ts.nextHandle
	ts.handles[h] = he
	ts.byTablet[req.dbTablet] = h
	ts.mu.Unlock()
	return openResp{Handle: h, LastDurable: eng.LastDurable()}, nil
}
