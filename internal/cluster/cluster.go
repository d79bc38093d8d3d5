// Package cluster runs the Spanner tablet-server layer as separately
// spawnable processes behind the internal/transport wire protocol,
// turning the single-process reproduction into the paper's §III shape: a
// coordinator process keeps the catalog, routing, MVCC transaction and
// 2PC logic, and dials tablet servers that own the durable row storage —
// the Taurus-style compute/storage separation that makes availability
// and scale-out independently tunable.
//
// The remote boundary is storage.Engine. Every RPC of the protocol is one
// entry of the method table below, which fixes its wire name and its
// request and response types; a transport failure (partition, process
// death, connection reset) marks the client-side engine Crashed(), which
// drives the exact recovery machinery the durable engine already has:
// readers discard and retry, recoverTablet re-opens through the factory
// (re-dialing the peer, which replays its WAL), and interrupted commits
// roll forward. A SIGKILLed tablet server that rejoins therefore heals
// with no new protocol: the coordinator's roll-forward loop finds the
// reopened engine and completes phase 2.
//
// Tablet handoff between live processes is the migration a split runs
// (DESIGN.md "Tablet migration"): the source's engine is sealed (no new
// applies), the target opens a fresh engine on its own WAL directory,
// storage.CopyChains streams the chains across, and the target
// commissions — only then is the source demoted and destroyed. The swap
// itself rides the recovery path: the moved tablet's client engine is
// poisoned, and the next touch re-opens it on the target.
package cluster

import (
	"context"
	"encoding/json"

	"firestore/internal/status"
	"firestore/internal/storage"
	"firestore/internal/transport"
	"firestore/internal/truetime"
)

// method is one RPC of the coordinator <-> tablet-server protocol,
// declared once: its wire name, in its type the bodies it carries, and in
// wire how they are encoded. call is the only client of a method and
// handle / handleEngine the only servers, so no call site can pair a
// request with another method's response or another method's encoding.
type method[Req, Resp any] struct {
	name string
	// sealedOK lets an engine sealed for handoff keep serving the method:
	// the handoff reads the frozen state through it.
	sealedOK bool
	// wire, if set, is the method's binary body codec (wire.go). Without
	// it the bodies are JSON, through the transport's adapter.
	wire *codec[Req, Resp]
}

// codec is a method's binary bodies: requests are encoded by call and
// decoded by handle, responses the other way round. A decoder refuses
// trailing bytes; what it returns may alias the body it was given.
type codec[Req, Resp any] struct {
	encReq  func([]byte, Req) []byte
	decReq  func([]byte) (Req, error)
	encResp func([]byte, Resp) []byte
	decResp func([]byte) (Resp, error)
}

// none is the body of a method without a request or a response. It
// travels as an empty body, not as "{}".
type none struct{}

// methodNames lists the table's wire names in declaration order.
var methodNames []string

func rpc[Req, Resp any](name string) method[Req, Resp] {
	methodNames = append(methodNames, name)
	return method[Req, Resp]{name: name}
}

func (m method[Req, Resp]) whileSealed() method[Req, Resp] {
	m.sealedOK = true
	return m
}

func (m method[Req, Resp]) binary(c codec[Req, Resp]) method[Req, Resp] {
	m.wire = &c
	return m
}

// The method table. Wire names are frozen: transport.rpcs_total{method}
// labels and /debug/clusterz depend on them. Encodings are not negotiated:
// a coordinator and a tablet server must share transport's frame version,
// which changes with any body below. The six methods that carry keys and
// values are binary, in storage's own codec (every RPC of a serving
// workload is one of them); the rest are rare, small, and stay JSON.
var (
	// Control plane: tablet server -> coordinator.
	mJoin      = rpc[joinReq, none]("cluster.join")
	mHeartbeat = rpc[heartbeatReq, none]("cluster.heartbeat")

	// Engine plane: coordinator -> tablet server. One method per
	// storage.Engine method, addressed by the handle mOpen returned.
	mOpen       = rpc[openReq, openResp]("engine.open")
	mGet        = rpc[getReq, storage.BatchGet]("engine.get").binary(getCodec)
	mGetBatch   = rpc[getBatchReq, getBatchResp]("engine.getbatch").binary(getBatchCodec)
	mScan       = rpc[scanReq, scanResp]("engine.scan").binary(scanCodec)
	mApply      = rpc[applyReq, none]("engine.apply").binary(applyCodec)
	mKeyAt      = rpc[keyAtReq, keyAtResp]("engine.key-at").whileSealed()
	mChains     = rpc[scanReq, chainsResp]("engine.chains").whileSealed().binary(chainsCodec)
	mIngest     = rpc[ingestReq, none]("engine.ingest").binary(ingestCodec)
	mSetBounds  = rpc[setBoundsReq, none]("engine.set-bounds")
	mCommission = rpc[handleReq, none]("engine.commission")
	mStats      = rpc[handleReq, statsResp]("engine.stats").whileSealed()
	mCloseEng   = rpc[handleReq, none]("engine.close")
	mSeal       = rpc[dbTablet, handleReq]("engine.seal")

	// Factory plane: coordinator -> tablet server.
	mList    = rpc[listReq, listResp]("factory.list")
	mDestroy = rpc[dbTablet, none]("factory.destroy")

	// Introspection: coordinator -> tablet server.
	mPeerInfo = rpc[none, PeerIntrospection]("peer.info")
)

// wireBody is v as the transport's JSON adapter should carry it: nil, an
// empty body, for none.
func wireBody[T any](v T) any {
	if _, empty := any(v).(none); empty {
		return nil
	}
	return v
}

// endpoint is the far side of a call: a tablet server reached through
// the coordinator's pool or, when conn is set, the coordinator reached
// over a tablet server's control connection.
type endpoint struct {
	pool *transport.Pool
	peer string
	conn *transport.Conn
	// eng, if set, is the client-side engine the call belongs to: any
	// failure marks it crashed.
	eng *remoteEngine
}

// do is transport's Do against the endpoint, callJSON its Call.
func (to endpoint) do(ctx context.Context, name string, enc func([]byte) []byte) ([]byte, error) {
	if to.conn != nil {
		return to.conn.Do(ctx, name, enc)
	}
	return to.pool.Do(ctx, to.peer, name, enc)
}

func (to endpoint) callJSON(ctx context.Context, name string, req, resp any) error {
	if to.conn != nil {
		return to.conn.Call(ctx, name, req, resp)
	}
	return to.pool.Call(ctx, to.peer, name, req, resp)
}

// call performs m against to.
func call[Req, Resp any](ctx context.Context, to endpoint, m method[Req, Resp], req Req) (Resp, error) {
	var resp Resp
	var err error
	if w := m.wire; w != nil {
		var body []byte
		body, err = to.do(ctx, m.name, func(buf []byte) []byte { return w.encReq(buf, req) })
		if err == nil {
			if resp, err = w.decResp(body); err != nil {
				err = status.Errorf(status.Internal, "cluster", "decoding %s response: %v", m.name, err)
			}
		}
	} else {
		var r Resp // boxed for the JSON adapter, so not the result itself
		err = to.callJSON(ctx, m.name, wireBody(req), &r)
		resp = r
	}
	if err != nil && to.eng != nil {
		to.eng.crashed.Store(true)
	}
	return resp, err
}

// handle serves m on srv with fn. An undecodable body is the caller's
// InvalidArgument; fn never sees it. A binary request body lives in the
// transport's pooled buffer: its decoder copies out whatever fn keeps.
func handle[Req, Resp any](srv *transport.Server, m method[Req, Resp], fn func(context.Context, Req) (Resp, error)) {
	if w := m.wire; w != nil {
		srv.HandleBytes(m.name, func(ctx context.Context, body, reply []byte) ([]byte, error) {
			req, err := w.decReq(body)
			if err != nil {
				return reply, status.Wrap(status.InvalidArgument, "cluster", err)
			}
			resp, err := fn(ctx, req)
			if err != nil {
				return reply, err
			}
			return w.encResp(reply, resp), nil
		})
		return
	}
	_, noRequest := any(*new(Req)).(none)
	srv.Handle(m.name, func(ctx context.Context, body json.RawMessage) (any, error) {
		var req Req
		if !noRequest {
			if err := json.Unmarshal(body, &req); err != nil {
				return nil, status.Wrap(status.InvalidArgument, "cluster", err)
			}
		}
		resp, err := fn(ctx, req)
		if err != nil {
			return nil, err
		}
		return wireBody(resp), nil
	})
}

// handleEngine serves a handle-addressed method: it resolves the
// request's handle to a hosted engine (ErrStaleHandle), refuses a sealed
// one unless m allows it (ErrSealed), runs fn, and re-checks Crashed()
// so a result computed while the engine died is never returned. fn is
// left with the engine call alone.
func handleEngine[Req interface{ handle() uint64 }, Resp any](ts *TabletServer, m method[Req, Resp], fn func(context.Context, *hostedEngine, Req) (Resp, error)) {
	handle(ts.srv, m, func(ctx context.Context, req Req) (Resp, error) {
		he, err := ts.lookup(req.handle(), m.sealedOK)
		if err != nil {
			var zero Resp
			return zero, err
		}
		resp, err := fn(ctx, he, req)
		if err == nil && he.eng.Crashed() {
			err = storage.ErrCrashed
		}
		return resp, err
	})
}

// Engine kinds a tablet server can host.
const (
	KindDisk = "disk"
	KindMem  = "mem"
)

// Request and response bodies; those without JSON tags travel through
// their method's codec (wire.go). Rows, writes, version chains and tablet
// metadata are storage's own types. []byte fields ride JSON base64; nil
// bounds (= unbounded) survive either trip, as null or as a flag.

// dbTablet addresses one tablet of one pool database across the cluster.
type dbTablet struct {
	DB     int    `json:"db"`
	Tablet uint64 `json:"tablet"`
}

// handleReq addresses one hosted engine. Every engine-plane request
// leads with the same field; handle is how handleEngine reads it.
type handleReq struct {
	H uint64 `json:"h"`
}

func (r handleReq) handle() uint64    { return r.H }
func (r getReq) handle() uint64       { return r.H }
func (r getBatchReq) handle() uint64  { return r.H }
func (r scanReq) handle() uint64      { return r.H }
func (r applyReq) handle() uint64     { return r.H }
func (r keyAtReq) handle() uint64     { return r.H }
func (r ingestReq) handle() uint64    { return r.H }
func (r setBoundsReq) handle() uint64 { return r.H }

type joinReq struct {
	Name string `json:"name"`
	Addr string `json:"addr"`
	Kind string `json:"kind"`
}

type heartbeatReq struct {
	Name    string `json:"name"`
	Tablets int    `json:"tablets"`
}

type openReq struct {
	dbTablet
	Start []byte `json:"start"`
	End   []byte `json:"end"`
}

type openResp struct {
	Handle      uint64             `json:"h"`
	LastDurable truetime.Timestamp `json:"last_durable"`
}

type getReq struct {
	H   uint64
	Key []byte
	TS  truetime.Timestamp
}

type getBatchReq struct {
	H    uint64
	Keys [][]byte
	TS   truetime.Timestamp
}

type getBatchResp struct {
	// Results aligns with the request's Keys.
	Results []storage.BatchGet
}

// scanReq asks for at most Limit rows of the range; scanResp.More says
// the range holds rows beyond those returned. The server keeps nothing
// between calls: the client continues from the last key's successor.
type scanReq struct {
	H       uint64
	Lo, Hi  []byte
	TS      truetime.Timestamp
	Reverse bool
	Limit   int
}

type scanResp struct {
	Rows []storage.Row
	More bool
}

type applyReq struct {
	H      uint64
	Writes []storage.Write
	TS     truetime.Timestamp
}

type keyAtReq struct {
	H uint64 `json:"h"`
	I int    `json:"i"`
}

type keyAtResp struct {
	Key []byte `json:"key,omitempty"`
	OK  bool   `json:"ok"`
}

// chainsResp chunks a chain export the way scanResp chunks a scan, and
// engine.chains asks with a scanReq, its TS and Reverse unused.
type chainsResp struct {
	Chains []storage.Chain
	More   bool
}

type ingestReq struct {
	H      uint64
	Chains []storage.Chain
}

type setBoundsReq struct {
	H     uint64 `json:"h"`
	Start []byte `json:"start"`
	End   []byte `json:"end"`
}

type statsResp struct {
	Stats storage.Stats `json:"stats"`
}

type listReq struct {
	DB int `json:"db"`
}

type listResp struct {
	Tablets []storage.TabletMeta `json:"tablets,omitempty"`
}

// PeerIntrospection is a tablet server's self-report for /debug/clusterz.
type PeerIntrospection struct {
	Name    string           `json:"name"`
	Kind    string           `json:"kind"`
	Tablets []TabletHostInfo `json:"tablets,omitempty"`
}

// TabletHostInfo describes one engine a tablet server hosts.
type TabletHostInfo struct {
	DB     int           `json:"db"`
	Tablet uint64        `json:"tablet"`
	Start  []byte        `json:"start"`
	End    []byte        `json:"end"`
	Sealed bool          `json:"sealed,omitempty"`
	Stats  storage.Stats `json:"stats"`
}
