package transport

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"time"

	"firestore/internal/fault"
	"firestore/internal/obs"
	"firestore/internal/status"
)

// PeerHealth is one peer's connection-pool state for /debug/clusterz and
// fsctl cluster.
type PeerHealth struct {
	Peer string `json:"peer"`
	Addr string `json:"addr"`
	// Healthy means the last call on the peer succeeded (no live failure
	// streak).
	Healthy bool `json:"healthy"`
	// Connected means the pool holds a connection to the peer.
	Connected bool `json:"connected"`
	// ConsecutiveFailures is the current failure streak; it resets to
	// zero on any success.
	ConsecutiveFailures int64 `json:"consecutive_failures"`
	// Reconnects counts dials that replaced a broken connection.
	Reconnects int64  `json:"reconnects"`
	Calls      int64  `json:"calls"`
	Errors     int64  `json:"errors"`
	LastError  string `json:"last_error,omitempty"`
	// LastOKUnixNano is the wall-clock time of the last successful call.
	LastOKUnixNano int64 `json:"last_ok_unix_nano,omitempty"`
}

// Pool dials and holds connections per peer. A call takes an idle
// connection, or dials one when none is idle, and gives it back when done,
// so a peer has a connection per concurrent caller; at most maxIdle stay
// open while idle. The pool tracks per-peer health (failure streaks) and
// feeds per-peer RPC metrics into an obs.Registry. It is the one client
// in every process and the single place network fault sites are
// evaluated, so an armed transport.partition covers every RPC: the
// coordinator's engine calls and a tablet server's join and heartbeat.
type Pool struct {
	mu    sync.Mutex
	peers map[string]*poolPeer
	met   *poolMetrics
}

// poolMetrics are the pool's instruments; Health reads its call, error
// and reconnect counts back from them.
type poolMetrics struct {
	calls, errs *obs.CounterVec   // transport.rpcs_total, transport.errors_total {peer,method}
	reconnects  *obs.CounterVec   // transport.reconnects_total{peer}
	latency     *obs.HistogramVec // transport.rpc_latency{peer}
}

func newPoolMetrics(reg *obs.Registry) *poolMetrics {
	return &poolMetrics{
		calls:      reg.CounterVec("transport.rpcs_total", "peer", "method"),
		errs:       reg.CounterVec("transport.errors_total", "peer", "method"),
		reconnects: reg.CounterVec("transport.reconnects_total", "peer"),
		latency:    reg.HistogramVec("transport.rpc_latency", "peer"),
	}
}

// maxIdle bounds the idle connections a Pool keeps per peer: past it, a
// connection is closed when its call returns.
const maxIdle = 8

type poolPeer struct {
	name string

	mu    sync.Mutex
	addr  string
	idle  []*Conn            // the last one given back is taken first
	conns map[*Conn]struct{} // every connection held, idle or in a call
	// unreplaced counts connections dropped broken that no dial has
	// replaced yet: the dials that do count as reconnects.
	unreplaced  int
	consecFails int64
	lastErr     string
	lastOK      time.Time
}

// NewPool returns a pool dialing TCP; reg (nil means a private registry)
// receives transport.rpcs_total{peer,method},
// transport.errors_total{peer,method}, transport.rpc_latency{peer}, and
// transport.reconnects_total{peer}.
func NewPool(reg *obs.Registry) *Pool {
	return &Pool{peers: map[string]*poolPeer{}, met: newPoolMetrics(obs.OrNew(reg))}
}

// SetObs re-declares the pool's instruments in reg and carries the counts
// so far over, so Health keeps counting from where it was. The
// coordinator uses it after the fact: the region's registry only exists
// once the region opens, which itself already drives pool RPCs during
// recovery.
func (p *Pool) SetObs(reg *obs.Registry) {
	next := newPoolMetrics(reg)
	carry := func(from, to *obs.CounterVec) {
		from.Each(func(values []string, c *obs.Counter) { to.With(values...).Add(c.Value()) })
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	carry(p.met.calls, next.calls)
	carry(p.met.errs, next.errs)
	carry(p.met.reconnects, next.reconnects)
	p.met = next
}

// SetPeer adds a peer or updates its address (a rejoining process
// listens on a fresh port). An address change drops the old connections.
func (p *Pool) SetPeer(name, addr string) {
	p.mu.Lock()
	pp := p.peers[name]
	if pp == nil {
		pp = &poolPeer{name: name, conns: map[*Conn]struct{}{}}
		p.peers[name] = pp
	}
	p.mu.Unlock()
	pp.mu.Lock()
	defer pp.mu.Unlock()
	if pp.addr != addr {
		pp.addr = addr
		pp.dropLocked(true)
	}
}

// Do performs one RPC against peer at the byte level (Conn.Do),
// evaluating the network fault sites and recording per-peer metrics and
// health.
func (p *Pool) Do(ctx context.Context, peer, method string, enc func([]byte) []byte) ([]byte, error) {
	p.mu.Lock()
	pp := p.peers[peer]
	met := p.met
	p.mu.Unlock()
	if pp == nil {
		return nil, status.Errorf(status.NotFound, "transport", "unknown peer %q", peer)
	}

	// Network fault sites, evaluated before anything touches the wire.
	// slow-link first (latency mode returns nil after sleeping), then the
	// hard failures.
	if err := fault.Point(ctx, fault.TransportSlowLink); err != nil {
		return nil, pp.finish(met, method, 0, unreachable(err))
	}
	if err := fault.Point(ctx, fault.TransportPartition); err != nil {
		return nil, pp.finish(met, method, 0, unreachable(err))
	}
	reset := fault.Decide(ctx, fault.TransportConnReset).Kind == fault.KindCrash
	halfOpen := fault.Decide(ctx, fault.TransportHalfOpen).Kind == fault.KindDrop

	if reset {
		// Tear down every connection to the peer mid-conversation: the
		// calls in flight on them fail, and the next call re-dials.
		pp.mu.Lock()
		pp.dropLocked(true)
		pp.mu.Unlock()
		return nil, pp.finish(met, method, 0, unreachable(status.New(status.Unavailable, "transport", "injected connection reset")))
	}
	conn, err := pp.take(met)
	if err != nil {
		return nil, pp.finish(met, method, 0, err)
	}
	if halfOpen {
		// The request reaches the peer and executes, but its connection is
		// dropped unread, so the outcome is ambiguous.
		_, err := conn.do(ctx, method, enc, false)
		pp.give(conn)
		if !errors.Is(err, ErrPeerUnreachable) {
			err = status.New(status.DeadlineExceeded, "transport", "injected half-open connection: response lost")
		}
		return nil, pp.finish(met, method, 0, err)
	}

	start := time.Now()
	body, err := conn.Do(ctx, method, enc)
	pp.give(conn)
	return body, pp.finish(met, method, time.Since(start), err)
}

// take returns an idle connection to the peer, or dials one.
func (pp *poolPeer) take(met *poolMetrics) (*Conn, error) {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	if n := len(pp.idle); n > 0 {
		c := pp.idle[n-1]
		pp.idle = pp.idle[:n-1]
		return c, nil
	}
	if pp.addr == "" {
		return nil, unreachable(status.Errorf(status.Unavailable, "transport", "peer %q has no address", pp.name))
	}
	c, err := Dial(pp.addr)
	if err != nil {
		return nil, err
	}
	pp.conns[c] = struct{}{}
	if pp.unreplaced > 0 {
		pp.unreplaced--
		met.reconnects.With(pp.name).Inc()
	}
	return c, nil
}

// give takes c back after a call: it goes idle if it is whole, still held
// and there is room, and is closed otherwise. A broken c retires the
// peer's idle connections with it: no read watches an idle connection, so
// one the peer dropped would otherwise fail the next call that takes it.
func (pp *poolPeer) give(c *Conn) {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	_, held := pp.conns[c]
	switch {
	case !held:
	case c.Broken():
		for _, idle := range pp.idle {
			delete(pp.conns, idle)
			idle.Close()
		}
		pp.unreplaced += 1 + len(pp.idle)
		pp.idle = nil
	case len(pp.idle) < maxIdle:
		pp.idle = append(pp.idle, c)
		return
	}
	delete(pp.conns, c)
	c.Close()
}

// dropLocked closes every connection held to the peer, idle or in a call.
// broken: the dials that replace them count as reconnects.
func (pp *poolPeer) dropLocked(broken bool) {
	for c := range pp.conns {
		c.Close()
	}
	if broken {
		pp.unreplaced += len(pp.conns)
	}
	pp.conns, pp.idle = map[*Conn]struct{}{}, nil
}

// finish records one call's outcome in health state and in met,
// returning err unchanged.
func (pp *poolPeer) finish(met *poolMetrics, method string, latency time.Duration, err error) error {
	pp.mu.Lock()
	if err != nil {
		pp.consecFails++
		pp.lastErr = err.Error()
	} else {
		pp.consecFails = 0
		pp.lastOK = time.Now()
	}
	pp.mu.Unlock()
	met.calls.With(pp.name, method).Inc()
	if err != nil {
		met.errs.With(pp.name, method).Inc()
	} else if latency > 0 {
		met.latency.With(pp.name).Record(latency)
	}
	return err
}

// Health snapshots every peer's pool state, sorted by peer name.
func (p *Pool) Health() []PeerHealth {
	p.mu.Lock()
	peers := make([]*poolPeer, 0, len(p.peers))
	for _, pp := range p.peers {
		peers = append(peers, pp)
	}
	met := p.met
	p.mu.Unlock()
	// Per-peer totals, summed over methods from the instruments.
	sum := func(v *obs.CounterVec) map[string]int64 {
		by := map[string]int64{}
		v.Each(func(values []string, c *obs.Counter) { by[values[0]] += c.Value() })
		return by
	}
	calls, errs, reconnects := sum(met.calls), sum(met.errs), sum(met.reconnects)
	out := make([]PeerHealth, 0, len(peers))
	for _, pp := range peers {
		pp.mu.Lock()
		h := PeerHealth{
			Peer:                pp.name,
			Addr:                pp.addr,
			Healthy:             pp.consecFails == 0,
			Connected:           len(pp.conns) > 0,
			ConsecutiveFailures: pp.consecFails,
			Reconnects:          reconnects[pp.name],
			Calls:               calls[pp.name],
			Errors:              errs[pp.name],
			LastError:           pp.lastErr,
		}
		if !pp.lastOK.IsZero() {
			h.LastOKUnixNano = pp.lastOK.UnixNano()
		}
		pp.mu.Unlock()
		out = append(out, h)
	}
	slices.SortFunc(out, func(a, b PeerHealth) int { return strings.Compare(a.Peer, b.Peer) })
	return out
}

// Close drops every connection.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, pp := range p.peers {
		pp.mu.Lock()
		pp.dropLocked(false)
		pp.mu.Unlock()
	}
}
