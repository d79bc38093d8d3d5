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
	// Connected means a dialed, unbroken connection is being held.
	Connected bool `json:"connected"`
	// ConsecutiveFailures is the current failure streak; it resets to
	// zero on any success.
	ConsecutiveFailures int64 `json:"consecutive_failures"`
	// Reconnects counts dials after the first.
	Reconnects int64  `json:"reconnects"`
	Calls      int64  `json:"calls"`
	Errors     int64  `json:"errors"`
	LastError  string `json:"last_error,omitempty"`
	// LastOKUnixNano is the wall-clock time of the last successful call.
	LastOKUnixNano int64 `json:"last_ok_unix_nano,omitempty"`
}

// Pool dials and holds one multiplexed connection per peer, tracking
// per-peer health (failure streaks) and feeding per-peer RPC metrics into
// an obs.Registry. It is the single place network fault sites are
// evaluated, so an armed transport.partition covers every RPC the
// coordinator makes.
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

type poolPeer struct {
	name string

	mu          sync.Mutex
	addr        string
	conn        *Conn
	dialed      bool // a first dial happened (later dials count as reconnects)
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
// listens on a fresh port). An address change drops the old connection.
func (p *Pool) SetPeer(name, addr string) {
	p.mu.Lock()
	pp := p.peers[name]
	if pp == nil {
		pp = &poolPeer{name: name}
		p.peers[name] = pp
	}
	p.mu.Unlock()
	pp.mu.Lock()
	var stale *Conn
	if pp.addr != addr {
		stale = pp.conn
		pp.conn = nil
		pp.addr = addr
	}
	pp.mu.Unlock()
	if stale != nil {
		stale.Close()
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

	conn, reconnected, err := p.connFor(pp)
	if err != nil {
		return nil, pp.finish(met, method, 0, err)
	}
	if reconnected {
		met.reconnects.With(peer).Inc()
	}

	if reset {
		// Tear the socket down mid-conversation: every in-flight call on
		// it fails and the next call re-dials.
		conn.Reset()
		return nil, pp.finish(met, method, 0, unreachable(status.New(status.Unavailable, "transport", "injected connection reset")))
	}
	if halfOpen {
		// The request reaches the peer and executes; the caller has stopped
		// listening by the time it answers, so the outcome is ambiguous.
		gone, cancel := context.WithCancel(ctx)
		cancel()
		if _, err := conn.Do(gone, method, enc); errors.Is(err, ErrPeerUnreachable) {
			return nil, pp.finish(met, method, 0, err)
		}
		return nil, pp.finish(met, method, 0, status.New(status.DeadlineExceeded, "transport", "injected half-open connection: response lost"))
	}

	start := time.Now()
	body, err := conn.Do(ctx, method, enc)
	return body, pp.finish(met, method, time.Since(start), err)
}

// connFor returns the peer's live connection, dialing if absent or
// broken. reconnected reports a dial that replaced a previous one.
func (p *Pool) connFor(pp *poolPeer) (conn *Conn, reconnected bool, err error) {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	if pp.conn != nil && !pp.conn.Broken() {
		return pp.conn, false, nil
	}
	if pp.addr == "" {
		return nil, false, unreachable(status.Errorf(status.Unavailable, "transport", "peer %q has no address", pp.name))
	}
	c, err := Dial(pp.addr)
	if err != nil {
		return nil, false, err
	}
	reconnected = pp.dialed
	pp.dialed = true
	pp.conn = c
	return c, reconnected, nil
}

// finish records one call's outcome in health state and in met,
// returning err unchanged.
func (pp *poolPeer) finish(met *poolMetrics, method string, latency time.Duration, err error) error {
	pp.mu.Lock()
	if err != nil {
		pp.consecFails++
		pp.lastErr = err.Error()
		if errors.Is(err, ErrPeerUnreachable) && pp.conn != nil && pp.conn.Broken() {
			pp.conn = nil
		}
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
			Connected:           pp.conn != nil && !pp.conn.Broken(),
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
	peers := make([]*poolPeer, 0, len(p.peers))
	for _, pp := range p.peers {
		peers = append(peers, pp)
	}
	p.mu.Unlock()
	for _, pp := range peers {
		pp.mu.Lock()
		conn := pp.conn
		pp.conn = nil
		pp.mu.Unlock()
		if conn != nil {
			conn.Close()
		}
	}
}
