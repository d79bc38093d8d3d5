package cluster

import (
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"firestore/internal/status"
	"firestore/internal/storage"
	"firestore/internal/transport"
	"firestore/internal/truetime"
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

// rawBody is a golden body as bytes: hex (spaces ignored) for a binary
// method, the JSON text itself otherwise. show is its inverse.
func rawBody[Req, Resp any](t *testing.T, m method[Req, Resp], golden string) []byte {
	if m.wire == nil {
		return []byte(golden)
	}
	b, err := hex.DecodeString(strings.ReplaceAll(golden, " ", ""))
	if err != nil {
		t.Fatalf("%s: golden %q: %v", m.name, golden, err)
	}
	return b
}

func show[Req, Resp any](m method[Req, Resp], body []byte) string {
	if m.wire == nil {
		return string(body)
	}
	return hex.EncodeToString(body)
}

// rawCall sends body as it is and returns the reply as it came.
func rawCall(conn *transport.Conn, name string, body []byte) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return conn.Do(ctx, name, func(b []byte) []byte { return append(b, body...) })
}

// golden pins one method's wire form to captured bytes (wantReq, wantResp;
// "" is an empty body; hex for the binary methods, spaces ignored): call
// must put exactly wantReq on the wire and decode wantResp into resp;
// handle must decode wantReq into req and reply exactly wantResp.
func golden[Req, Resp any](p *wireProbe, m method[Req, Resp], req Req, wantReq string, resp Resp, wantResp string) {
	p.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	reqBytes, respBytes := rawBody(p.t, m, wantReq), rawBody(p.t, m, wantResp)

	// Client half: call against the raw server.
	var sent []byte
	p.raw.HandleBytes(m.name, func(_ context.Context, body, reply []byte) ([]byte, error) {
		sent = bytes.Clone(body)
		return append(reply, respBytes...), nil
	})
	gotResp, err := call(ctx, endpoint{conn: p.rawConn}, m, req)
	if err != nil {
		p.t.Fatalf("%s: call: %v", m.name, err)
	}
	if !bytes.Equal(sent, reqBytes) {
		p.t.Errorf("%s: call sent\n  %s\nwant\n  %s", m.name, show(m, sent), show(m, reqBytes))
	}
	if !reflect.DeepEqual(gotResp, resp) {
		p.t.Errorf("%s: call decoded %+v, want %+v", m.name, gotResp, resp)
	}

	// Server half: raw bytes against handle. The decoded request is
	// compared inside the handler: a binary one aliases a buffer that is
	// reused once the handler returns.
	var same bool
	var gotReq string
	handle(p.typed, m, func(_ context.Context, r Req) (Resp, error) {
		same, gotReq = reflect.DeepEqual(r, req), fmt.Sprintf("%+v", r)
		return resp, nil
	})
	replied, err := rawCall(p.typedConn, m.name, reqBytes)
	if err != nil {
		p.t.Fatalf("%s: raw call: %v", m.name, err)
	}
	if !bytes.Equal(replied, respBytes) {
		p.t.Errorf("%s: handle replied\n  %s\nwant\n  %s", m.name, show(m, replied), show(m, respBytes))
	}
	if !same {
		p.t.Errorf("%s: handle decoded %s, want %+v", m.name, gotReq, req)
	}
	p.seen[m.name] = true
}

// TestWireGolden holds the protocol byte for byte: every method of the
// table, with null bounds, omitted empties and empty bodies, encodes to
// the captured bytes and decodes back. The twelve JSON methods are as the
// hand-written mirror structs first produced them; the six binary ones
// were captured once, when they left JSON for storage's codec.
func TestWireGolden(t *testing.T) {
	p := newWireProbe(t)
	k, v := []byte("key"), []byte("val")
	chains := []storage.Chain{
		{Key: k, Versions: []storage.Version{{TS: 5, Value: v}, {TS: 9, Deleted: true}}},
		{Key: []byte("purged"), Versions: []storage.Version{{TS: 3}}, Purged: true},
	}
	// key, flags, version count, then per version ts, flags, value.
	const chainsHex = "03 6b6579 00 02  05 00 03 76616c  09 01 00" + "06 707572676564 01 01  03 00 00"
	const statsJSON = `{"kind":"disk","keys":2,"memtable_keys":0,"memtable_bytes":0,"wal_bytes":64,"wal_records":0,"fsyncs":0,"segments":0,"segment_bytes":0,"flushes":0,"compactions":0,"recoveries":0,"last_durable_ts":11,"flushed_ts":4}`
	stats := storage.Stats{Kind: "disk", Keys: 2, WALBytes: 64, LastDurable: 11, FlushedTS: 4}

	golden(p, mJoin, joinReq{Name: "a", Addr: "127.0.0.1:7", Kind: KindMem},
		`{"name":"a","addr":"127.0.0.1:7","kind":"mem"}`, none{}, "")
	golden(p, mHeartbeat, heartbeatReq{Name: "a", Tablets: 3},
		`{"name":"a","tablets":3}`, none{}, "")
	golden(p, mOpen, openReq{dbTablet: dbTablet{1, 2}, End: []byte("m")},
		`{"db":1,"tablet":2,"start":null,"end":"bQ=="}`,
		openResp{Handle: 7, LastDurable: 11}, `{"h":7,"last_durable":11}`)
	// handle, ts, key -> found, version ts, value.
	golden(p, mGet, getReq{H: 7, Key: k, TS: 12}, "07 0c 03 6b6579",
		storage.BatchGet{Value: v, TS: 10, OK: true}, "01 0a 03 76616c")
	golden(p, mGet, getReq{H: 7, Key: k, TS: 12}, "07 0c 03 6b6579", storage.BatchGet{}, "00 00 00")
	golden(p, mGetBatch, getBatchReq{H: 7, Keys: [][]byte{k, []byte("other")}, TS: 12},
		"07 0c 02  03 6b6579  05 6f74686572",
		getBatchResp{Results: []storage.BatchGet{{Value: v, TS: 10, OK: true}, {}}},
		"02  01 0a 03 76616c  00 00 00")
	// handle, ts, limit, flags (2 reverse, 4 lo set, 8 hi set), lo, hi ->
	// flags (1 more), row count, then per row key, ts, value. An unset
	// bound and a set empty one differ in the flag alone.
	golden(p, mScan, scanReq{H: 7, Hi: []byte("z"), TS: 12, Reverse: true, Limit: 2},
		"07 0c 02 0a 00 01 7a",
		scanResp{Rows: []storage.Row{{Key: k, Value: v, TS: 10}, {Key: []byte("e"), TS: 3}}, More: true},
		"01 02  03 6b6579 0a 03 76616c  01 65 03 00")
	golden(p, mScan, scanReq{H: 7, TS: 12, Limit: 32}, "07 0c 20 00 00 00", scanResp{}, "00 00")
	golden(p, mScan, scanReq{H: 7, Lo: []byte{}, Hi: []byte{}, TS: 12, Limit: 1}, "07 0c 01 0c 00 00", scanResp{}, "00 00")
	// handle, then a recCommit record's body: ts, write count, then per
	// write key, flags (1 delete), value.
	golden(p, mApply, applyReq{H: 7, Writes: []storage.Write{{Key: k, Value: v}, {Key: []byte("gone"), Delete: true}}, TS: 13},
		"07 0d 02  03 6b6579 00 03 76616c  04 676f6e65 01 00", none{}, "")
	golden(p, mKeyAt, keyAtReq{H: 7, I: 1}, `{"h":7,"i":1}`, keyAtResp{Key: k, OK: true}, `{"key":"a2V5","ok":true}`)
	// A scan request with ts and reverse unused -> flags, chain count, chains.
	golden(p, mChains, scanReq{H: 7, Lo: []byte("a"), Limit: 2}, "07 00 02 04 01 61 00",
		chainsResp{Chains: chains, More: true}, "01 02"+chainsHex)
	golden(p, mChains, scanReq{H: 7, Limit: 32}, "07 00 20 00 00 00", chainsResp{}, "00 00")
	golden(p, mIngest, ingestReq{H: 7, Chains: chains}, "07 02"+chainsHex, none{}, "")
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
// well-behaved peer would, JSON ones to the binary methods included: each
// is refused as InvalidArgument (or, for a well-formed request naming a
// handle that does not exist, ErrStaleHandle), nothing panics, and both
// servers keep serving.
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
			_, err := rawCall(conn, name, []byte(probe.body))
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

	// The binary methods, each from a well-formed body: cut mid-field,
	// with a byte left over, and with a count or a length far beyond the
	// bytes that follow it, where a decoder that trusted it would allocate.
	h := e.(*remoteEngine).handle
	key := []byte("k")
	chain := []storage.Chain{{Key: key, Versions: []storage.Version{{TS: 7, Value: []byte("v")}}}}
	huge := func(prefix []byte) []byte { return appendUvarints(prefix, 1<<40) }
	for _, probe := range []struct {
		name     string
		ok, huge []byte
	}{
		{mGet.name, getCodec.encReq(nil, getReq{H: h, Key: key, TS: 10}), huge(appendUvarints(nil, h, 10))},
		{mGetBatch.name, getBatchCodec.encReq(nil, getBatchReq{H: h, Keys: [][]byte{key}, TS: 10}), huge(appendUvarints(nil, h, 10))},
		{mScan.name, scanCodec.encReq(nil, scanReq{H: h, Lo: key, TS: 10, Limit: 1}), huge(append(appendUvarints(nil, h, 10, 1), flagLo))},
		{mApply.name, applyCodec.encReq(nil, applyReq{H: h, Writes: []storage.Write{{Key: key, Value: key}}, TS: 7}), huge(appendUvarints(nil, h, 7))},
		{mChains.name, chainsCodec.encReq(nil, scanReq{H: h, Hi: key, Limit: 1}), huge(append(appendUvarints(nil, h, 0, 1), flagLo))},
		{mIngest.name, ingestCodec.encReq(nil, ingestReq{H: h, Chains: chain}), huge(appendUvarints(nil, h))},
	} {
		if _, err := rawCall(toTablet, probe.name, probe.ok); err != nil {
			t.Errorf("%s with a well-formed body: %v", probe.name, err)
		}
		for what, body := range map[string][]byte{
			"truncated mid-field": probe.ok[:len(probe.ok)-1],
			"trailing garbage":    append(bytes.Clone(probe.ok), 0),
			"oversized count":     probe.huge,
		} {
			if _, err := rawCall(toTablet, probe.name, body); status.CodeOf(err) != status.InvalidArgument {
				t.Errorf("%s %s: err = %v, want InvalidArgument", probe.name, what, err)
			}
		}
	}

	// A chunk limit no coordinator sends — negative, zero or beyond the
	// largest chunk — is refused before the engine is touched, and a
	// refusal is not a crash.
	for _, limit := range []int{-1, 0, storage.MaxScanChunk + 1, 1 << 40} {
		for name, body := range map[string][]byte{
			mScan.name:   scanCodec.encReq(nil, scanReq{H: h, TS: 10, Limit: limit}),
			mChains.name: chainsCodec.encReq(nil, scanReq{H: h, Limit: limit}),
		} {
			if _, err := rawCall(toTablet, name, body); status.CodeOf(err) != status.InvalidArgument {
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

// TestWireBuffersDoNotAlias: what crossed the wire is the receiver's own.
// Values and rows handed back by Get and Scan, and the keys and values the
// peer's engine stored from Apply, stay byte for byte what was sent while
// thousands of further frames reuse the transport's pooled buffers under
// them. Meaningful under -race too: a retained alias is a racing write.
func TestWireBuffersDoNotAlias(t *testing.T) {
	coord, servers := startCluster(t, 1, KindMem)
	e, err := coord.Factory(0).Open(1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	kv := func(prefix string, i int) (k, v []byte) {
		return []byte(fmt.Sprintf("%s/%04d", prefix, i)), bytes.Repeat([]byte{byte('a' + i%26)}, 40+i%200)
	}
	const kept = 64
	var batch []storage.Write
	for i := 0; i < kept; i++ {
		k, v := kv("kept", i)
		batch = append(batch, storage.Write{Key: k, Value: v})
	}
	if err := e.Apply(context.Background(), batch, 5); err != nil {
		t.Fatal(err)
	}
	var values [][]byte
	for _, w := range batch {
		v, _, ok := e.Get(w.Key, 10)
		if !ok {
			t.Fatalf("Get(%s) missing", w.Key)
		}
		values = append(values, v)
	}
	var rows []storage.Row
	e.Scan([]byte("kept/"), []byte("kept0"), 10, false, func(r storage.Row) bool {
		rows = append(rows, r)
		return true
	})

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prefix := fmt.Sprintf("churn%d", g)
			for i := 0; i < 1000; i++ {
				k, v := kv(prefix, i)
				switch i % 4 {
				case 0:
					if err := e.Apply(context.Background(), []storage.Write{{Key: k, Value: v}, {Key: v, Value: k}}, truetime.Timestamp(10+i)); err != nil {
						t.Error(err)
						return
					}
				case 1:
					e.Get(k, truetime.Max)
				case 2:
					e.(storage.BatchGetter).GetBatch([][]byte{k, v, k}, truetime.Max)
				case 3:
					e.Scan([]byte(prefix), nil, truetime.Max, false, func(storage.Row) bool { return true })
				}
			}
		}()
	}
	wg.Wait()

	if len(rows) != kept {
		t.Fatalf("scan kept %d rows, want %d", len(rows), kept)
	}
	ts := servers[0]
	ts.mu.Lock()
	stored := ts.handles[e.(*remoteEngine).handle].eng
	ts.mu.Unlock()
	var inEngine []storage.Row
	stored.Scan([]byte("kept/"), []byte("kept0"), 10, false, func(r storage.Row) bool {
		inEngine = append(inEngine, r)
		return true
	})
	if len(inEngine) != kept {
		t.Fatalf("the peer's engine holds %d of the rows, want %d", len(inEngine), kept)
	}
	for i := 0; i < kept; i++ {
		k, v := kv("kept", i)
		if !bytes.Equal(values[i], v) {
			t.Errorf("value kept from Get(%s) changed to %.20q", k, values[i])
		}
		if !bytes.Equal(rows[i].Key, k) || !bytes.Equal(rows[i].Value, v) {
			t.Errorf("row kept from Scan changed: %.20q = %.20q, want %s", rows[i].Key, rows[i].Value, k)
		}
		if !bytes.Equal(inEngine[i].Key, k) || !bytes.Equal(inEngine[i].Value, v) {
			t.Errorf("the peer's engine stores %.20q = %.20q, want %s", inEngine[i].Key, inEngine[i].Value, k)
		}
	}
}

// fuzzBodies feeds in to both of m's decoders: each refuses it or returns a
// value whose encoding decodes to the same value again.
func fuzzBodies[Req, Resp any](t *testing.T, m method[Req, Resp], in []byte) {
	if req, err := m.wire.decReq(in); err == nil {
		if again, err := m.wire.decReq(m.wire.encReq(nil, req)); err != nil || !reflect.DeepEqual(again, req) {
			t.Fatalf("%s request %x decodes to %+v, which re-encodes to %+v, %v", m.name, in, req, again, err)
		}
	}
	if resp, err := m.wire.decResp(in); err == nil {
		if again, err := m.wire.decResp(m.wire.encResp(nil, resp)); err != nil || !reflect.DeepEqual(again, resp) {
			t.Fatalf("%s response %x decodes to %+v, which re-encodes to %+v, %v", m.name, in, resp, again, err)
		}
	}
}

// FuzzEngineBodies: arbitrary bytes never panic a binary body decoder nor
// make it allocate beyond them, and whatever one accepts round-trips. The
// seeds are TestWireGolden's bodies.
func FuzzEngineBodies(f *testing.F) {
	for _, golden := range []string{
		"070c036b6579", "010a0376616c", "070c02036b6579056f74686572", "02010a0376616c000000",
		"070c020a00017a", "0102036b65790a0376616c01650300", "070c010c0000", "0000",
		"070d02036b6579000376616c04676f6e650100", "07000204016100",
		"0102036b6579000205000376616c0901000670757267656401010300" + "00",
		"0702036b6579000205000376616c090100067075726765640101030000",
		"07ffffffffff7f", "0affffffffffffffffff01",
	} {
		b, err := hex.DecodeString(golden)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		fuzzBodies(t, mGet, in)
		fuzzBodies(t, mGetBatch, in)
		fuzzBodies(t, mScan, in)
		fuzzBodies(t, mApply, in)
		fuzzBodies(t, mChains, in)
		fuzzBodies(t, mIngest, in)
	})
}
