package cluster

import (
	"cmp"
	"context"
	"slices"
	"sync"
	"time"

	"firestore/internal/status"
	"firestore/internal/storage"
	"firestore/internal/transport"
)

// CoordinatorConfig configures the cluster control plane.
type CoordinatorConfig struct {
	// Listen is the control-plane address tablet servers join (default
	// "127.0.0.1:0").
	Listen string
}

// peerState is the coordinator's view of one joined tablet server.
type peerState struct {
	addr            string
	kind            string
	lastJoin        time.Time
	lastHeartbeat   time.Time
	tabletsReported int
}

// Coordinator is the cluster control plane: it accepts tablet-server
// joins and heartbeats, owns the tablet→peer assignment table, hands
// internal/core a storage.Factory per pool database that remotes every
// engine over the wire, and drives live tablet handoffs.
type Coordinator struct {
	srv  *transport.Server
	pool *transport.Pool
	addr string

	mu     sync.Mutex
	peers  map[string]*peerState
	order  []string // join order, for round-robin assignment
	assign map[dbTablet]string
	live   map[dbTablet]*remoteEngine
	moving map[dbTablet]chan struct{}
	nextRR int
	joined chan struct{} // signaled (by replacement) on every join
}

// NewCoordinator starts the control-plane listener.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	c := &Coordinator{
		srv:    transport.NewServer(),
		pool:   transport.NewPool(nil),
		peers:  map[string]*peerState{},
		assign: map[dbTablet]string{},
		live:   map[dbTablet]*remoteEngine{},
		moving: map[dbTablet]chan struct{}{},
		joined: make(chan struct{}),
	}
	handle(c.srv, mJoin, c.handleJoin)
	handle(c.srv, mHeartbeat, c.handleHeartbeat)
	addr, err := c.srv.Listen(cfg.Listen)
	if err != nil {
		return nil, err
	}
	c.addr = addr
	return c, nil
}

// Addr is the control-plane address tablet servers join (-join flag).
func (c *Coordinator) Addr() string { return c.addr }

// Pool exposes the engine-plane connection pool (clusterz health view).
func (c *Coordinator) Pool() *transport.Pool { return c.pool }

// peer is the engine-plane endpoint of tablet server name.
func (c *Coordinator) peer(name string) endpoint { return endpoint{pool: c.pool, peer: name} }

func (c *Coordinator) handleJoin(_ context.Context, req joinReq) (none, error) {
	if req.Name == "" || req.Addr == "" {
		return none{}, status.New(status.InvalidArgument, "cluster", "join needs name and addr")
	}
	// A rejoining process listens on a fresh port: repoint the pool so
	// recovery re-opens dial the new incarnation — before the join is
	// published, so whoever waited for it can dial the peer at once.
	c.pool.SetPeer(req.Name, req.Addr)
	c.mu.Lock()
	defer c.mu.Unlock()
	ps := c.peers[req.Name]
	if ps == nil {
		ps = &peerState{}
		c.peers[req.Name] = ps
		c.order = append(c.order, req.Name)
	}
	ps.addr = req.Addr
	ps.kind = req.Kind
	ps.lastJoin = time.Now()
	ps.lastHeartbeat = ps.lastJoin
	close(c.joined)
	c.joined = make(chan struct{})
	return none{}, nil
}

func (c *Coordinator) handleHeartbeat(_ context.Context, req heartbeatReq) (none, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ps := c.peers[req.Name]
	if ps == nil {
		return none{}, status.Errorf(status.NotFound, "cluster", "heartbeat from unjoined peer %q", req.Name)
	}
	ps.lastHeartbeat = time.Now()
	ps.tabletsReported = req.Tablets
	return none{}, nil
}

// awaitJoin blocks until ok (evaluated under c.mu, again after every
// join) reports true, or timeout passes; it returns ok's last answer.
func (c *Coordinator) awaitJoin(timeout time.Duration, ok func() bool) bool {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		c.mu.Lock()
		done, ch := ok(), c.joined
		c.mu.Unlock()
		if done {
			return true
		}
		select {
		case <-ch:
		case <-timer.C:
			c.mu.Lock()
			defer c.mu.Unlock()
			return ok()
		}
	}
}

// WaitForPeers blocks until at least n tablet servers have joined.
func (c *Coordinator) WaitForPeers(n int, timeout time.Duration) error {
	have := 0
	if c.awaitJoin(timeout, func() bool { have = len(c.peers); return have >= n }) {
		return nil
	}
	return status.Errorf(status.DeadlineExceeded, "cluster",
		"waited %v for %d tablet servers, have %d", timeout, n, have)
}

// waitForPeerJoin blocks until peer name has (re)joined after the given
// time — the Harness uses it to know a spawned child is serving.
func (c *Coordinator) waitForPeerJoin(name string, after time.Time, timeout time.Duration) error {
	if c.awaitJoin(timeout, func() bool { ps := c.peers[name]; return ps != nil && ps.lastJoin.After(after) }) {
		return nil
	}
	return status.Errorf(status.DeadlineExceeded, "cluster", "peer %q did not join within %v", name, timeout)
}

// Factory returns the storage.Factory for pool database db, pluggable
// directly into core.Config.StorageFactory.
func (c *Coordinator) Factory(db int) storage.Factory {
	return &RemoteFactory{coord: c, db: db}
}

// peerNames lists joined peers in join order.
func (c *Coordinator) peerNames() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.order...)
}

// pickPeer resolves (assigning sticky round-robin if new) the owner of
// dt, first waiting out any handoff of dt in flight so the answer is the
// post-move owner.
func (c *Coordinator) pickPeer(dt dbTablet) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for ch := c.moving[dt]; ch != nil; ch = c.moving[dt] {
		c.mu.Unlock()
		<-ch
		c.mu.Lock()
	}
	if peer, ok := c.assign[dt]; ok {
		if _, known := c.peers[peer]; known {
			return peer, nil
		}
	}
	if len(c.order) == 0 {
		return "", status.New(status.Unavailable, "cluster", "no tablet servers joined")
	}
	peer := c.order[c.nextRR%len(c.order)]
	c.nextRR++
	c.assign[dt] = peer
	return peer, nil
}

// ownerOf reports dt's assigned peer.
func (c *Coordinator) ownerOf(dt dbTablet) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	peer, ok := c.assign[dt]
	return peer, ok
}

// adopt records that peer holds dt's durable state (discovered by List
// during recovery) unless an assignment already exists.
func (c *Coordinator) adopt(dt dbTablet, peer string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.assign[dt]; !ok {
		c.assign[dt] = peer
	}
}

func (c *Coordinator) unassign(dt dbTablet) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.assign, dt)
}

func (c *Coordinator) setLive(dt dbTablet, e *remoteEngine) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.live[dt] = e
}

// dropLive forgets dt's live engine if it is still e (a re-open may
// already have replaced it).
func (c *Coordinator) dropLive(dt dbTablet, e *remoteEngine) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.live[dt] == e {
		delete(c.live, dt)
	}
}

// MoveTablet hands tablet (db, id) off from its current owner to target,
// live. It is DESIGN.md "Tablet migration" between two processes:
//
//  1. seal the source engine (reads and writes start failing, which at
//     worst sends concurrent transactions down the recovery path — Open
//     blocks on the in-flight move),
//  2. open a fresh pending engine on the target (its own WAL directory)
//     and copy the source's chains into it through the sealed handle,
//     chunk by chunk,
//  3. commission the target — the point of no return,
//  4. flip the assignment, then poison the live coordinator-side engine
//     so its next touch recovers onto the target,
//  5. best-effort destroy the source's state (a crash before this leaves
//     a duplicate catalog entry, which List resolves toward the assigned
//     owner).
//
// A failure before step 3 completes leaves the assignment on the source;
// the sealed engine heals because recovery's re-open supersedes the
// sealed handle with a fresh one, and what reached the target is destroyed
// (or, the target unreachable, emptied by the tablet's next open there).
func (c *Coordinator) MoveTablet(db int, id uint64, target string) error {
	dt := dbTablet{db, id}
	c.mu.Lock()
	if _, ok := c.peers[target]; !ok {
		c.mu.Unlock()
		return status.Errorf(status.NotFound, "cluster", "unknown target peer %q", target)
	}
	source, ok := c.assign[dt]
	if !ok {
		c.mu.Unlock()
		return status.Errorf(status.NotFound, "cluster", "tablet %d/%d has no owner", db, id)
	}
	if source == target {
		c.mu.Unlock()
		return nil
	}
	if _, inFlight := c.moving[dt]; inFlight {
		c.mu.Unlock()
		return status.Errorf(status.Aborted, "cluster", "tablet %d/%d is already moving", db, id)
	}
	done := make(chan struct{})
	c.moving[dt] = done
	eng := c.live[dt]
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.moving, dt)
		c.mu.Unlock()
		close(done)
	}()

	if eng == nil {
		return status.Errorf(status.FailedPrecondition, "cluster", "tablet %d/%d has no live engine to move", db, id)
	}
	start, end := eng.bounds()
	ctx := context.Background()

	// 1. Seal. On failure nothing changed; on later failures the sealed
	// source heals via recovery's re-open.
	sealed, err := call(ctx, c.peer(source), mSeal, dt)
	if err != nil {
		return err
	}
	abort := func(err error) error {
		// Drop what reached the target, and kick the live engine onto the
		// recovery path now rather than on its next organic failure; Open
		// will re-open on the source and supersede the sealed handle.
		call(ctx, c.peer(target), mDestroy, dt) //nolint:errcheck
		eng.crashed.Store(true)
		return err
	}

	// 2-3. Open the target, copy, commission, between two bare engines:
	// handles on peers, outside the factory's bookkeeping (never Close them).
	opened, err := call(ctx, c.peer(target), mOpen, openReq{dbTablet: dt, Start: start, End: end})
	if err != nil {
		return abort(err)
	}
	src := &remoteEngine{via: c.peer(source), handle: sealed.H}
	src.via.eng = src // a failed export reads as a crash, not as the end of the range
	dst := &remoteEngine{via: c.peer(target), handle: opened.Handle}
	if _, err = storage.CopyChains(dst, src, nil, nil); err == nil {
		err = dst.Commission()
	}
	if err != nil {
		return abort(err)
	}
	// The target copy is durable and live: close its bootstrap handle so
	// the recovery re-open below owns the engine lifecycle.
	call(ctx, dst.via, mCloseEng, handleReq{dst.handle}) //nolint:errcheck

	// 4. Flip ownership, then poison the old engine.
	c.mu.Lock()
	c.assign[dt] = target
	c.mu.Unlock()
	eng.poison()

	// 5. Demote the source.
	_, err = call(ctx, src.via, mDestroy, dt)
	return err
}

// OwnedTablet is one tablet in a peer's clusterz listing.
type OwnedTablet struct {
	DB     int    `json:"db"`
	Tablet uint64 `json:"tablet"`
	Start  []byte `json:"start,omitempty"`
	End    []byte `json:"end,omitempty"`
	Live   bool   `json:"live"`
}

// PeerStatus is one tablet server's row in the clusterz peer table.
type PeerStatus struct {
	Name                  string               `json:"name"`
	Addr                  string               `json:"addr"`
	Kind                  string               `json:"kind"`
	LastHeartbeatUnixNano int64                `json:"last_heartbeat_unix_nano,omitempty"`
	TabletsReported       int                  `json:"tablets_reported"`
	Owned                 []OwnedTablet        `json:"owned,omitempty"`
	Pool                  transport.PeerHealth `json:"pool"`
}

// ClusterStatus is the /debug/clusterz payload.
type ClusterStatus struct {
	Coordinator string       `json:"coordinator"`
	Peers       []PeerStatus `json:"peers"`
}

// Snapshot reports the peer table from the coordinator's own state (no
// RPCs: it must render during partitions).
func (c *Coordinator) Snapshot() ClusterStatus {
	health := map[string]transport.PeerHealth{}
	for _, h := range c.pool.Health() {
		health[h.Peer] = h
	}
	c.mu.Lock()
	st := ClusterStatus{Coordinator: c.addr}
	for _, name := range c.order {
		ps := c.peers[name]
		row := PeerStatus{
			Name:            name,
			Addr:            ps.addr,
			Kind:            ps.kind,
			TabletsReported: ps.tabletsReported,
			Pool:            health[name],
		}
		if !ps.lastHeartbeat.IsZero() {
			row.LastHeartbeatUnixNano = ps.lastHeartbeat.UnixNano()
		}
		for dt, peer := range c.assign {
			if peer != name {
				continue
			}
			ot := OwnedTablet{DB: dt.DB, Tablet: dt.Tablet}
			if e := c.live[dt]; e != nil {
				ot.Start, ot.End = e.bounds()
				ot.Live = !e.Crashed()
			}
			row.Owned = append(row.Owned, ot)
		}
		slices.SortFunc(row.Owned, func(a, b OwnedTablet) int {
			return cmp.Or(cmp.Compare(a.DB, b.DB), cmp.Compare(a.Tablet, b.Tablet))
		})
		st.Peers = append(st.Peers, row)
	}
	c.mu.Unlock()
	return st
}

// Close stops the control plane and drops every pooled connection.
func (c *Coordinator) Close() {
	c.srv.Close()
	c.pool.Close()
}
