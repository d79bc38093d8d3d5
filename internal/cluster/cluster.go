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
// declared once: its wire name and, in its type, the bodies it carries.
// call is the only client of a method and handle / handleEngine the only
// servers, so no call site can pair a request with another method's
// response.
type method[Req, Resp any] struct {
	name string
	// sealedOK lets an engine sealed for handoff keep serving the method:
	// the handoff reads the frozen state through it.
	sealedOK bool
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

// The method table. Wire names and JSON field names are frozen:
// transport.rpcs_total{method} labels, /debug/clusterz and a
// mixed-version coordinator/tablet pair depend on them.
var (
	// Control plane: tablet server -> coordinator.
	mJoin      = rpc[joinReq, none]("cluster.join")
	mHeartbeat = rpc[heartbeatReq, none]("cluster.heartbeat")

	// Engine plane: coordinator -> tablet server. One method per
	// storage.Engine method, addressed by the handle mOpen returned.
	mOpen       = rpc[openReq, openResp]("engine.open")
	mGet        = rpc[getReq, storage.BatchGet]("engine.get")
	mGetBatch   = rpc[getBatchReq, getBatchResp]("engine.getbatch")
	mScan       = rpc[scanReq, scanResp]("engine.scan")
	mApply      = rpc[applyReq, none]("engine.apply")
	mKeyAt      = rpc[keyAtReq, keyAtResp]("engine.key-at").whileSealed()
	mChains     = rpc[chainsReq, chainsResp]("engine.chains").whileSealed()
	mIngest     = rpc[ingestReq, none]("engine.ingest")
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

// wireBody is v as the transport should carry it: nil, an empty body,
// for none.
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

// call performs m against to.
func call[Req, Resp any](ctx context.Context, to endpoint, m method[Req, Resp], req Req) (Resp, error) {
	var resp Resp
	var err error
	if to.conn != nil {
		err = to.conn.Call(ctx, m.name, wireBody(req), &resp)
	} else {
		err = to.pool.Call(ctx, to.peer, m.name, wireBody(req), &resp)
	}
	if err != nil && to.eng != nil {
		to.eng.crashed.Store(true)
	}
	return resp, err
}

// handle serves m on srv with fn. An undecodable body is the caller's
// InvalidArgument; fn never sees it.
func handle[Req, Resp any](srv *transport.Server, m method[Req, Resp], fn func(context.Context, Req) (Resp, error)) {
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

// Request and response bodies. Rows, writes, version chains and tablet
// metadata are storage's own types (their JSON tags live there). []byte
// fields ride JSON base64; nil bounds (= unbounded) survive the trip
// because they marshal as null, not "".

// dbTablet addresses one tablet of one pool database across the cluster.
type dbTablet struct {
	DB     int    `json:"db"`
	Tablet uint64 `json:"tablet"`
}

// handleReq addresses one hosted engine. Every engine-plane request
// leads with the same field; handle is how handleEngine reads it. (The
// requests do not embed handleReq: encoding/json allocates once more per
// decode for a promoted field, and get / getbatch / apply are every
// operation of a wire-backed region.)
type handleReq struct {
	H uint64 `json:"h"`
}

func (r handleReq) handle() uint64    { return r.H }
func (r getReq) handle() uint64       { return r.H }
func (r getBatchReq) handle() uint64  { return r.H }
func (r scanReq) handle() uint64      { return r.H }
func (r applyReq) handle() uint64     { return r.H }
func (r keyAtReq) handle() uint64     { return r.H }
func (r chainsReq) handle() uint64    { return r.H }
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
	H   uint64             `json:"h"`
	Key []byte             `json:"key"`
	TS  truetime.Timestamp `json:"ts"`
}

type getBatchReq struct {
	H    uint64             `json:"h"`
	Keys [][]byte           `json:"keys"`
	TS   truetime.Timestamp `json:"ts"`
}

type getBatchResp struct {
	// Results aligns with the request's Keys.
	Results []storage.BatchGet `json:"results"`
}

// scanReq asks for at most Limit rows of the range; scanResp.More says
// the range holds rows beyond those returned. The server keeps nothing
// between calls: the client continues from the last key's successor.
type scanReq struct {
	H       uint64             `json:"h"`
	Lo      []byte             `json:"lo"`
	Hi      []byte             `json:"hi"`
	TS      truetime.Timestamp `json:"ts"`
	Reverse bool               `json:"reverse,omitempty"`
	Limit   int                `json:"limit"`
}

type scanResp struct {
	Rows []storage.Row `json:"rows,omitempty"`
	More bool          `json:"more,omitempty"`
}

type applyReq struct {
	H      uint64             `json:"h"`
	Writes []storage.Write    `json:"writes"`
	TS     truetime.Timestamp `json:"ts"`
}

type keyAtReq struct {
	H uint64 `json:"h"`
	I int    `json:"i"`
}

type keyAtResp struct {
	Key []byte `json:"key,omitempty"`
	OK  bool   `json:"ok"`
}

// chainsReq and chainsResp chunk a chain export the way scanReq and
// scanResp chunk a scan.
type chainsReq struct {
	H     uint64 `json:"h"`
	Lo    []byte `json:"lo"`
	Hi    []byte `json:"hi"`
	Limit int    `json:"limit"`
}

type chainsResp struct {
	Chains []storage.Chain `json:"chains,omitempty"`
	More   bool            `json:"more,omitempty"`
}

type ingestReq struct {
	H      uint64          `json:"h"`
	Chains []storage.Chain `json:"chains"`
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
