package cluster

import (
	"context"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"firestore/internal/status"
	"firestore/internal/storage"
	"firestore/internal/transport"
)

// wireProbe pairs a server that speaks the method table through handle
// with one that records raw request bodies and replies raw bytes, so a
// golden case checks both helpers against the real transport.
type wireProbe struct {
	t          *testing.T
	typed, raw *transport.Server
	typedConn  *transport.Conn // to typed
	rawConn    *transport.Conn // to raw
	seen       map[string]bool
}

func newWireProbe(t *testing.T) *wireProbe {
	serve := func() (*transport.Server, *transport.Conn) {
		srv := transport.NewServer()
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		conn, err := transport.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(conn.Close)
		return srv, conn
	}
	p := &wireProbe{t: t, seen: map[string]bool{}}
	p.typed, p.typedConn = serve()
	p.raw, p.rawConn = serve()
	return p
}

// golden pins one method's wire form to bytes captured from the parent
// commit's hand-written structs (wantReq, wantResp; "" is an empty body):
// call must put exactly wantReq on the wire and decode wantResp into
// resp; handle must decode wantReq into req and reply exactly wantResp.
func golden[Req, Resp any](p *wireProbe, m method[Req, Resp], req Req, wantReq string, resp Resp, wantResp string) {
	p.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	// Client half: call against the raw server.
	var sent string
	p.raw.Handle(m.name, func(_ context.Context, body json.RawMessage) (any, error) {
		sent = string(body)
		if wantResp == "" {
			return nil, nil
		}
		return json.RawMessage(wantResp), nil
	})
	gotResp, err := call(ctx, endpoint{conn: p.rawConn}, m, req)
	if err != nil {
		p.t.Fatalf("%s: call: %v", m.name, err)
	}
	if sent != wantReq {
		p.t.Errorf("%s: call sent\n  %s\nwant\n  %s", m.name, sent, wantReq)
	}
	if !reflect.DeepEqual(gotResp, resp) {
		p.t.Errorf("%s: call decoded %+v, want %+v", m.name, gotResp, resp)
	}

	// Server half: raw bytes against handle.
	var gotReq Req
	handle(p.typed, m, func(_ context.Context, r Req) (Resp, error) {
		gotReq = r
		return resp, nil
	})
	var rawReq any
	if wantReq != "" {
		rawReq = json.RawMessage(wantReq)
	}
	var replied json.RawMessage
	if err := p.typedConn.Call(ctx, m.name, rawReq, &replied); err != nil {
		p.t.Fatalf("%s: raw call: %v", m.name, err)
	}
	if string(replied) != wantResp {
		p.t.Errorf("%s: handle replied\n  %s\nwant\n  %s", m.name, replied, wantResp)
	}
	if !reflect.DeepEqual(gotReq, req) {
		p.t.Errorf("%s: handle decoded %+v, want %+v", m.name, gotReq, req)
	}
	p.seen[m.name] = true
}

// TestWireGolden holds the protocol byte for byte: every method of the
// table, with null bounds, omitted empties and empty bodies, encodes to
// what the parent commit's mirror structs produced, and decodes back.
func TestWireGolden(t *testing.T) {
	p := newWireProbe(t)
	k, v := []byte("key"), []byte("val")
	chains := []storage.Chain{
		{Key: k, Versions: []storage.Version{{TS: 5, Value: v}, {TS: 9, Deleted: true}}},
		{Key: []byte("purged"), Versions: []storage.Version{{TS: 3}}, Purged: true},
	}
	const chainsJSON = `[{"k":"a2V5","vs":[{"ts":5,"v":"dmFs"},{"ts":9,"d":true}]},{"k":"cHVyZ2Vk","vs":[{"ts":3}],"p":true}]`
	const statsJSON = `{"kind":"disk","keys":2,"memtable_keys":0,"memtable_bytes":0,"wal_bytes":64,"wal_records":0,"fsyncs":0,"segments":0,"segment_bytes":0,"flushes":0,"compactions":0,"recoveries":0,"last_durable_ts":11,"flushed_ts":4}`
	stats := storage.Stats{Kind: "disk", Keys: 2, WALBytes: 64, LastDurable: 11, FlushedTS: 4}

	golden(p, mJoin, joinReq{Name: "a", Addr: "127.0.0.1:7", Kind: KindMem},
		`{"name":"a","addr":"127.0.0.1:7","kind":"mem"}`, none{}, "")
	golden(p, mHeartbeat, heartbeatReq{Name: "a", Tablets: 3},
		`{"name":"a","tablets":3}`, none{}, "")
	golden(p, mOpen, openReq{dbTablet: dbTablet{1, 2}, End: []byte("m")},
		`{"db":1,"tablet":2,"start":null,"end":"bQ=="}`,
		openResp{Handle: 7, LastDurable: 11}, `{"h":7,"last_durable":11}`)
	golden(p, mGet, getReq{H: 7, Key: k, TS: 12},
		`{"h":7,"key":"a2V5","ts":12}`,
		storage.BatchGet{Value: v, TS: 10, OK: true}, `{"value":"dmFs","vts":10,"ok":true}`)
	golden(p, mGet, getReq{H: 7, Key: k, TS: 12},
		`{"h":7,"key":"a2V5","ts":12}`, storage.BatchGet{}, `{"ok":false}`)
	golden(p, mGetBatch, getBatchReq{H: 7, Keys: [][]byte{k, []byte("other")}, TS: 12},
		`{"h":7,"keys":["a2V5","b3RoZXI="],"ts":12}`,
		getBatchResp{Results: []storage.BatchGet{{Value: v, TS: 10, OK: true}, {}}},
		`{"results":[{"value":"dmFs","vts":10,"ok":true},{"ok":false}]}`)
	// engine.scan was re-captured when scans became chunked (a row limit
	// in, a "more" flag out). engine.chains followed it, and in that one
	// re-capture engine.open and engine.stats lost the fields no reader
	// was left for (flushed_ts and last_durable beside Stats, which
	// carries both) and engine.len / engine.purge left the table. Every
	// other entry — get, getbatch, scan, apply among them — is as first
	// captured.
	golden(p, mScan, scanReq{H: 7, Hi: []byte("z"), TS: 12, Reverse: true, Limit: 2},
		`{"h":7,"lo":null,"hi":"eg==","ts":12,"reverse":true,"limit":2}`,
		scanResp{Rows: []storage.Row{{Key: k, Value: v, TS: 10}, {Key: []byte("e"), TS: 3}}, More: true},
		`{"rows":[{"k":"a2V5","v":"dmFs","ts":10},{"k":"ZQ==","ts":3}],"more":true}`)
	golden(p, mScan, scanReq{H: 7, TS: 12, Limit: 32},
		`{"h":7,"lo":null,"hi":null,"ts":12,"limit":32}`, scanResp{}, `{}`)
	golden(p, mApply, applyReq{H: 7, Writes: []storage.Write{{Key: k, Value: v}, {Key: []byte("gone"), Delete: true}}, TS: 13},
		`{"h":7,"writes":[{"k":"a2V5","v":"dmFs"},{"k":"Z29uZQ==","d":true}],"ts":13}`, none{}, "")
	golden(p, mKeyAt, keyAtReq{H: 7, I: 1}, `{"h":7,"i":1}`, keyAtResp{Key: k, OK: true}, `{"key":"a2V5","ok":true}`)
	golden(p, mChains, chainsReq{H: 7, Lo: []byte("a"), Limit: 2},
		`{"h":7,"lo":"YQ==","hi":null,"limit":2}`, chainsResp{Chains: chains, More: true}, `{"chains":`+chainsJSON+`,"more":true}`)
	golden(p, mChains, chainsReq{H: 7, Limit: 32},
		`{"h":7,"lo":null,"hi":null,"limit":32}`, chainsResp{}, `{}`)
	golden(p, mIngest, ingestReq{H: 7, Chains: chains},
		`{"h":7,"chains":`+chainsJSON+`}`, none{}, "")
	golden(p, mSetBounds, setBoundsReq{H: 7, Start: []byte("a")},
		`{"h":7,"start":"YQ==","end":null}`, none{}, "")
	golden(p, mCommission, handleReq{7}, `{"h":7}`, none{}, "")
	golden(p, mStats, handleReq{7}, `{"h":7}`,
		statsResp{Stats: stats}, `{"stats":`+statsJSON+`}`)
	golden(p, mCloseEng, handleReq{7}, `{"h":7}`, none{}, "")
	golden(p, mSeal, dbTablet{1, 2}, `{"db":1,"tablet":2}`, handleReq{7}, `{"h":7}`)
	golden(p, mList, listReq{DB: 1}, `{"db":1}`,
		listResp{Tablets: []storage.TabletMeta{{ID: 1, End: []byte("m")}, {ID: 2, Start: []byte("m")}}},
		`{"tablets":[{"id":1,"start":null,"end":"bQ=="},{"id":2,"start":"bQ==","end":null}]}`)
	golden(p, mDestroy, dbTablet{1, 2}, `{"db":1,"tablet":2}`, none{}, "")
	golden(p, mPeerInfo, none{}, "",
		PeerIntrospection{Name: "a", Kind: KindMem, Tablets: []TabletHostInfo{{DB: 1, Tablet: 2, End: []byte("m"), Sealed: true, Stats: storage.Stats{Kind: "mem", Keys: 2}}}},
		`{"name":"a","kind":"mem","tablets":[{"db":1,"tablet":2,"start":null,"end":"bQ==","sealed":true,"stats":{"kind":"mem","keys":2,"memtable_keys":0,"memtable_bytes":0,"wal_bytes":0,"wal_records":0,"fsyncs":0,"segments":0,"segment_bytes":0,"flushes":0,"compactions":0,"recoveries":0,"last_durable_ts":0,"flushed_ts":0}}]}`)

	for _, name := range methodNames {
		if !p.seen[name] {
			t.Errorf("method %s has no golden case", name)
		}
	}
}

// TestMalformedRequests sends every method of the table bodies no
// well-behaved peer would: each is refused as InvalidArgument (or, for a
// well-formed request naming a handle that does not exist,
// ErrStaleHandle), nothing panics, and both servers keep serving.
func TestMalformedRequests(t *testing.T) {
	coord, servers := startCluster(t, 1, KindMem)
	e, err := coord.Factory(0).Open(1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	apply(t, e, "k", "v", 5)

	dial := func(addr string) *transport.Conn {
		conn, err := transport.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(conn.Close)
		return conn
	}
	toCoord, toTablet := dial(coord.Addr()), dial(servers[0].Addr())
	control := []string{mJoin.name, mHeartbeat.name}

	for _, name := range methodNames {
		if name == mPeerInfo.name {
			continue // carries no request body: there is nothing to malform
		}
		conn := toTablet
		if slices.Contains(control, name) {
			conn = toCoord
		}
		for _, probe := range []struct {
			what, body string
			stale      bool // well-formed for handle-addressed methods
		}{
			{"truncated JSON", `{"h":7,"db":1,"name":"a`, false},
			{"wrong-typed fields", `{"h":"seven","db":"one","name":1,"key":2,"keys":3,"writes":4,"chains":5}`, false},
			{"empty body", ``, false},
			{"not an object", `[1,2,3]`, false},
			{"h beyond uint64", `{"h":99999999999999999999999,"db":1e40,"name":{}}`, false},
			// The largest handle there is: valid JSON for the methods that
			// take one, still malformed for the rest.
			{"huge h", `{"h":18446744073709551615,"db":"one","name":1}`, true},
		} {
			var req any
			if probe.body != "" {
				req = json.RawMessage(probe.body)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			err := conn.Call(ctx, name, req, nil)
			cancel()
			switch code := status.CodeOf(err); {
			case code == status.InvalidArgument:
			case probe.stale && code == status.FailedPrecondition && strings.Contains(err.Error(), "stale engine handle"):
			case probe.stale && name == mCloseEng.name && err == nil:
				// Closing a handle that does not exist is a no-op by design.
			default:
				t.Errorf("%s with %s: err = %v, want InvalidArgument or ErrStaleHandle", name, probe.what, err)
			}
		}
	}

	// A chunk limit no coordinator sends — negative, zero (an omitted
	// field) or beyond the largest chunk — is refused before the engine
	// is touched, and a refusal is not a crash.
	h := e.(*remoteEngine).handle
	for _, limit := range []int{-1, 0, storage.MaxScanChunk + 1, 1 << 40} {
		for name, req := range map[string]any{
			mScan.name:   scanReq{H: h, TS: 10, Limit: limit},
			mChains.name: chainsReq{H: h, Limit: limit},
		} {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			err := toTablet.Call(ctx, name, req, nil)
			cancel()
			if status.CodeOf(err) != status.InvalidArgument {
				t.Errorf("%s with limit %d: err = %v, want InvalidArgument", name, limit, err)
			}
		}
	}
	if e.Crashed() {
		t.Fatal("a refused request marked the engine crashed")
	}

	// Still serving: the engine plane and the control plane.
	if v, _, ok := e.Get([]byte("k"), 10); !ok || string(v) != "v" {
		t.Fatalf("Get after the malformed sweep = %q, %v", v, ok)
	}
	apply(t, e, "k2", "v2", 6)
	if _, err := call(context.Background(), endpoint{conn: toCoord}, mHeartbeat, heartbeatReq{Name: "a"}); err != nil {
		t.Fatalf("heartbeat after the malformed sweep: %v", err)
	}
}

// parkedClose is an engine whose Close blocks until released, standing
// in for a Disk engine waiting out a flush or compaction.
type parkedClose struct {
	storage.Engine
	entered, release chan struct{}
}

func (p *parkedClose) Close() error {
	close(p.entered)
	<-p.release
	return p.Engine.Close()
}

// TestDestroyDoesNotBlockOtherTablets: factory.destroy closes the engine
// outside TabletServer.mu, which every other RPC's handle lookup needs —
// a read on another tablet completes while the destroy's Close is parked.
func TestDestroyDoesNotBlockOtherTablets(t *testing.T) {
	coord, servers := startCluster(t, 1, KindMem)
	ts := servers[0]
	e, err := coord.Factory(0).Open(1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	apply(t, e, "k", "v", 5)

	doomed := dbTablet{0, 2}
	parked := &parkedClose{Engine: storage.NewMem(), entered: make(chan struct{}), release: make(chan struct{})}
	ts.mu.Lock()
	ts.nextHandle++
	ts.handles[ts.nextHandle] = &hostedEngine{dbTablet: doomed, eng: parked}
	ts.byTablet[doomed] = ts.nextHandle
	ts.mu.Unlock()

	destroyed := make(chan error, 1)
	go func() {
		_, err := call(context.Background(), coord.peer("a"), mDestroy, doomed)
		destroyed <- err
	}()
	<-parked.entered

	read := make(chan bool, 1)
	go func() {
		_, _, ok := e.Get([]byte("k"), 10)
		read <- ok
	}()
	select {
	case ok := <-read:
		if !ok {
			t.Error("Get on the other tablet failed during the destroy")
		}
	case <-time.After(5 * time.Second):
		t.Error("Get on another tablet is stuck behind a destroy's Close")
	}
	close(parked.release)
	if err := <-destroyed; err != nil {
		t.Fatalf("destroy: %v", err)
	}
}
