package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"firestore/internal/fault"
	"firestore/internal/obs"
	"firestore/internal/reqctx"
	"firestore/internal/status"
)

type echoReq struct {
	Msg string `json:"msg"`
	N   int    `json:"n"`
}

type echoResp struct {
	Msg string `json:"msg"`
	N   int    `json:"n"`
}

func startEchoServer(t *testing.T) (*Server, string) {
	t.Helper()
	srv := NewServer()
	srv.Handle("echo", func(ctx context.Context, body json.RawMessage) (any, error) {
		var req echoReq
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		return echoResp{Msg: req.Msg, N: req.N * 2}, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(srv.Close)
	return srv, addr
}

// echoEnc encodes an echo request for Pool.Do.
func echoEnc(n int) func([]byte) []byte {
	return func(b []byte) []byte { return fmt.Appendf(b, `{"n":%d}`, n) }
}

func TestCallRoundTrip(t *testing.T) {
	_, addr := startEchoServer(t)
	conn, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	var resp echoResp
	if err := conn.Call(context.Background(), "echo", echoReq{Msg: "hi", N: 21}, &resp); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if resp.Msg != "hi" || resp.N != 42 {
		t.Fatalf("got %+v, want {hi 42}", resp)
	}
}

// TestConcurrentCallsShareAConn: goroutines sharing one Conn take turns,
// and each gets its own answer.
func TestConcurrentCallsShareAConn(t *testing.T) {
	_, addr := startEchoServer(t)
	conn, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var resp echoResp
			if err := conn.Call(context.Background(), "echo", echoReq{N: i}, &resp); err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
			if resp.N != i*2 {
				t.Errorf("call %d: got %d, want %d", i, resp.N, i*2)
			}
		}(i)
	}
	wg.Wait()
}

func TestRemoteErrorKeepsCode(t *testing.T) {
	srv := NewServer()
	srv.Handle("fail", func(ctx context.Context, body json.RawMessage) (any, error) {
		return nil, status.New(status.Aborted, "spanner", "lock conflict")
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()
	conn, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	err = conn.Call(context.Background(), "fail", nil, nil)
	if status.CodeOf(err) != status.Aborted {
		t.Fatalf("got code %v (%v), want Aborted", status.CodeOf(err), err)
	}
	if errors.Is(err, ErrPeerUnreachable) {
		t.Fatalf("remote application error must not read as unreachable: %v", err)
	}
	if err := conn.Call(context.Background(), "no-such-method", nil, nil); status.CodeOf(err) != status.NotFound {
		t.Fatalf("unknown method: got %v, want NotFound", err)
	}
}

func TestMetaAndDeadlinePropagate(t *testing.T) {
	srv := NewServer()
	srv.Handle("inspect", func(ctx context.Context, body json.RawMessage) (any, error) {
		m := reqctx.From(ctx)
		dl, ok := ctx.Deadline()
		return map[string]any{
			"rid": m.RequestID, "db": m.DB, "qos": int(m.QoS),
			"has_deadline": ok, "deadline_ns": dl.UnixNano(),
		}, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()
	conn, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()

	ctx := reqctx.With(context.Background(), reqctx.Meta{RequestID: "req-1", DB: "db-a", QoS: reqctx.Batch})
	dl := time.Now().Add(5 * time.Second)
	ctx, cancel := context.WithDeadline(ctx, dl)
	defer cancel()
	var got struct {
		RID         string `json:"rid"`
		DB          string `json:"db"`
		QoS         int    `json:"qos"`
		HasDeadline bool   `json:"has_deadline"`
		DeadlineNS  int64  `json:"deadline_ns"`
	}
	if err := conn.Call(ctx, "inspect", nil, &got); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if got.RID != "req-1" || got.DB != "db-a" || got.QoS != int(reqctx.Batch) {
		t.Fatalf("meta did not propagate: %+v", got)
	}
	if !got.HasDeadline || got.DeadlineNS != dl.UnixNano() {
		t.Fatalf("deadline did not propagate: %+v (want %d)", got, dl.UnixNano())
	}
}

func TestCallDeadlineExpires(t *testing.T) {
	srv := NewServer()
	release := make(chan struct{})
	srv.Handle("stall", func(ctx context.Context, body json.RawMessage) (any, error) {
		<-release
		return nil, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()
	defer close(release)
	conn, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	err = conn.Call(ctx, "stall", nil, nil)
	if status.CodeOf(err) != status.DeadlineExceeded {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
	// The connection survives an abandoned call.
	if conn.Broken() {
		t.Fatal("conn broken after an abandoned call")
	}
}

// startLateServer serves "late" and "echo" on a listener of its own. It
// holds a "late" request unanswered until the next request arrives, then
// answers both in order: the late answer comes after its caller gave up,
// just ahead of the next call's.
func startLateServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	serve := func(nc net.Conn) {
		defer nc.Close()
		br := bufio.NewReader(nc)
		var late []byte
		for {
			payload, err := readFrame(br, nil)
			if err != nil {
				return
			}
			h, body, err := parseFrame(payload)
			if err != nil {
				return
			}
			if string(h.method) == "late" {
				late = seeded(append(appendResponse(nil, h.id, status.OK, ""), "late"...))
				continue
			}
			out := append(late, seeded(append(appendResponse(nil, h.id, status.OK, ""), body...))...)
			late = nil
			if _, err := nc.Write(out); err != nil {
				return
			}
		}
	}
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go serve(nc)
		}
	}()
	return ln.Addr().String()
}

// TestAbandonedResponseNeverReachesALaterCall: a call abandoned at its
// deadline or its cancellation leaves the connection whole, and the late
// answer to it, which arrives just ahead of the next call's, is skipped,
// on a Conn and through a Pool.
func TestAbandonedResponseNeverReachesALaterCall(t *testing.T) {
	addr := startLateServer(t)
	conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pool := NewPool(nil)
	defer pool.Close()
	pool.SetPeer("t1", addr)
	for _, via := range []struct {
		name string
		do   func(context.Context, string, func([]byte) []byte) ([]byte, error)
	}{
		{"conn", conn.Do},
		{"pool", func(ctx context.Context, method string, enc func([]byte) []byte) ([]byte, error) {
			return pool.Do(ctx, "t1", method, enc)
		}},
	} {
		ends := map[string]func() (context.Context, context.CancelFunc){
			"deadline": func() (context.Context, context.CancelFunc) {
				return context.WithTimeout(context.Background(), 20*time.Millisecond)
			},
			"cancel": func() (context.Context, context.CancelFunc) {
				ctx, cancel := context.WithCancel(context.Background())
				time.AfterFunc(20*time.Millisecond, cancel)
				return ctx, cancel
			},
		}
		for end, ctxFor := range ends {
			ctx, cancel := ctxFor()
			_, err := via.do(ctx, "late", nil)
			cancel()
			if status.CodeOf(err) != status.DeadlineExceeded || errors.Is(err, ErrPeerUnreachable) {
				t.Fatalf("%s, %s: the late call = %v, want DeadlineExceeded", via.name, end, err)
			}
			want := via.name + " after " + end
			body, err := via.do(context.Background(), "echo", func(b []byte) []byte { return append(b, want...) })
			if err != nil || string(body) != want {
				t.Fatalf("%s: the next call got %q, %v; want its own body %q", via.name, body, err, want)
			}
		}
	}
	if conn.Broken() {
		t.Error("the conn broke over abandoned calls")
	}
	if h := pool.Health(); len(h) != 1 || h[0].Reconnects != 0 || h[0].Errors != 2 {
		t.Errorf("pool health = %+v, want the two abandoned calls' errors and no reconnect", h)
	}
}

// TestReadCutOffMidFrameBreaksTheConn: a deadline that passes inside a
// response frame leaves the stream unreadable, so the connection breaks.
func TestReadCutOffMidFrameBreaksTheConn(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	conn := &Conn{nc: client, br: bufio.NewReader(client)}
	defer conn.Close()
	go func() {
		payload, err := readFrame(bufio.NewReader(server), nil)
		if err != nil {
			return
		}
		h, _, _ := parseFrame(payload)
		frame := seeded(append(appendResponse(nil, h.id, status.OK, ""), "body"...))
		server.Write(frame[:len(frame)-2]) //nolint:errcheck // the rest never comes
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := conn.Do(ctx, "echo", nil); !errors.Is(err, ErrPeerUnreachable) {
		t.Fatalf("Do = %v, want unreachable", err)
	}
	if !conn.Broken() {
		t.Fatal("the conn survived a read cut off mid-frame")
	}
}

// TestPoolGrowsWithoutReconnecting: concurrent callers get connections of
// their own; dialing them is not reconnecting, and no more than maxIdle
// stay open.
func TestPoolGrowsWithoutReconnecting(t *testing.T) {
	_, addr := startEchoServer(t)
	pool := NewPool(nil)
	defer pool.Close()
	pool.SetPeer("t1", addr)
	var wg sync.WaitGroup
	for g := range 2 * maxIdle {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 20 {
				n := g*100 + i
				body, err := pool.Do(context.Background(), "t1", "echo", echoEnc(n))
				if err != nil || string(body) != fmt.Sprintf(`{"msg":"","n":%d}`, 2*n) {
					t.Errorf("call %d: %s, %v", n, body, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if h := pool.Health(); len(h) != 1 || h[0].Reconnects != 0 || h[0].Errors != 0 || !h[0].Connected {
		t.Fatalf("health = %+v, want connected with no errors or reconnects", h)
	}
	pp := pool.peers["t1"]
	if len(pp.conns) > maxIdle || len(pp.idle) != len(pp.conns) {
		t.Fatalf("%d connections held, %d idle, once every call returned; want at most %d, all idle", len(pp.conns), len(pp.idle), maxIdle)
	}
}

func TestPoolReconnectsAfterServerDrop(t *testing.T) {
	srv, addr := startEchoServer(t)
	reg := obs.NewRegistry()
	pool := NewPool(reg)
	defer pool.Close()
	pool.SetPeer("t1", addr)

	if _, err := pool.Do(context.Background(), "t1", "echo", echoEnc(1)); err != nil {
		t.Fatalf("first call: %v", err)
	}

	// Kill every server-side conn; the pooled conn breaks and the next
	// call must re-dial transparently (the listener is still up).
	srv.mu.Lock()
	for c := range srv.conns {
		c.Close()
	}
	srv.mu.Unlock()

	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := pool.Do(context.Background(), "t1", "echo", echoEnc(2))
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool never recovered: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	var h PeerHealth
	for _, ph := range pool.Health() {
		if ph.Peer == "t1" {
			h = ph
		}
	}
	if h.Reconnects == 0 {
		t.Fatalf("expected a reconnect, health=%+v", h)
	}
	if !h.Healthy || !h.Connected {
		t.Fatalf("peer should be healthy after recovery, health=%+v", h)
	}
	if got := reg.Counter("transport.reconnects_total", obs.Labels{"peer": "t1"}).Value(); got == 0 {
		t.Fatal("transport.reconnects_total not bumped")
	}
	if got := reg.Counter("transport.rpcs_total", obs.Labels{"peer": "t1", "method": "echo"}).Value(); got < 2 {
		t.Fatalf("transport.rpcs_total = %d, want >= 2", got)
	}
}

// TestPoolRecoversFromPeerRestart: a peer that drops every connection
// costs one failed call, not one per idle connection: the first broken
// connection retires the rest, and the next call dials.
func TestPoolRecoversFromPeerRestart(t *testing.T) {
	srv, addr := startEchoServer(t)
	in, release := make(chan struct{}), make(chan struct{})
	srv.HandleBytes("gate", func(_ context.Context, _, reply []byte) ([]byte, error) {
		in <- struct{}{}
		<-release
		return reply, nil
	})
	pool := NewPool(nil)
	defer pool.Close()
	pool.SetPeer("t1", addr)

	// Four calls in the handler at once hold four connections, which go
	// idle when they return.
	const conns = 4
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := pool.Do(context.Background(), "t1", "gate", nil); err != nil {
				t.Errorf("gate: %v", err)
			}
		}()
	}
	for range conns {
		<-in
	}
	close(release)
	wg.Wait()
	pp := pool.peers["t1"]
	pp.mu.Lock()
	idle := len(pp.idle)
	pp.mu.Unlock()
	if idle != conns {
		t.Fatalf("%d idle connections, want %d", idle, conns)
	}

	srv.mu.Lock()
	for c := range srv.conns {
		c.Close()
	}
	srv.mu.Unlock()

	failed := 0
	for i := range 6 {
		if _, err := pool.Do(context.Background(), "t1", "echo", echoEnc(i)); err != nil {
			failed++
		}
	}
	if failed > 1 {
		t.Fatalf("%d of 6 calls failed after the peer dropped its connections, want at most 1", failed)
	}
}

func TestFaultPartition(t *testing.T) {
	_, addr := startEchoServer(t)
	pool := NewPool(nil)
	defer pool.Close()
	pool.SetPeer("t1", addr)
	fault.Reset()
	defer fault.Reset()
	if err := fault.Enable(fault.Spec{Site: fault.TransportPartition, Mode: fault.ModeError, MaxCount: 2}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		_, err := pool.Do(context.Background(), "t1", "echo", echoEnc(1))
		if !errors.Is(err, ErrPeerUnreachable) || status.CodeOf(err) != status.Unavailable {
			t.Fatalf("partitioned call %d: got %v, want unreachable/Unavailable", i, err)
		}
	}
	// MaxCount exhausted: the partition heals.
	if _, err := pool.Do(context.Background(), "t1", "echo", echoEnc(1)); err != nil {
		t.Fatalf("after partition healed: %v", err)
	}
	if n := fault.Injected(fault.TransportPartition); n != 2 {
		t.Fatalf("injected = %d, want 2", n)
	}
}

func TestFaultHalfOpenExecutesButLosesResponse(t *testing.T) {
	srv := NewServer()
	var executed atomic.Int64
	srv.Handle("bump", func(ctx context.Context, body json.RawMessage) (any, error) {
		executed.Add(1)
		return nil, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()
	pool := NewPool(nil)
	defer pool.Close()
	pool.SetPeer("t1", addr)
	fault.Reset()
	defer fault.Reset()
	if err := fault.Enable(fault.Spec{Site: fault.TransportHalfOpen, Mode: fault.ModeDrop, MaxCount: 1}); err != nil {
		t.Fatal(err)
	}
	_, err = pool.Do(context.Background(), "t1", "bump", nil)
	if status.CodeOf(err) != status.DeadlineExceeded {
		t.Fatalf("half-open call: got %v, want DeadlineExceeded", err)
	}
	// The request still executed on the peer — that is the ambiguity the
	// site models.
	deadline := time.Now().Add(5 * time.Second)
	for executed.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("handler never executed behind the half-open fault")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFaultConnReset(t *testing.T) {
	_, addr := startEchoServer(t)
	pool := NewPool(nil)
	defer pool.Close()
	pool.SetPeer("t1", addr)
	if _, err := pool.Do(context.Background(), "t1", "echo", echoEnc(1)); err != nil {
		t.Fatalf("pre-reset call: %v", err)
	}
	fault.Reset()
	defer fault.Reset()
	if err := fault.Enable(fault.Spec{Site: fault.TransportConnReset, Mode: fault.ModeCrash, MaxCount: 1}); err != nil {
		t.Fatal(err)
	}
	_, err := pool.Do(context.Background(), "t1", "echo", echoEnc(1))
	if !errors.Is(err, ErrPeerUnreachable) {
		t.Fatalf("reset call: got %v, want unreachable", err)
	}
	// Next call re-dials and succeeds.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := pool.Do(context.Background(), "t1", "echo", echoEnc(3)); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("pool never recovered after reset: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, h := range pool.Health() {
		if h.Peer == "t1" && h.Reconnects == 0 {
			t.Fatalf("expected reconnect after reset, health=%+v", h)
		}
	}
}

func TestUnknownPeerAndDeadPeer(t *testing.T) {
	pool := NewPool(nil)
	defer pool.Close()
	if _, err := pool.Do(context.Background(), "ghost", "echo", nil); status.CodeOf(err) != status.NotFound {
		t.Fatalf("unknown peer: got %v, want NotFound", err)
	}
	// A peer whose address refuses connections fails as unreachable.
	srv := NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	pool.SetPeer("dead", addr)
	if _, err := pool.Do(context.Background(), "dead", "echo", nil); !errors.Is(err, ErrPeerUnreachable) {
		t.Fatalf("dead peer: got %v, want unreachable", err)
	}
	for _, h := range pool.Health() {
		if h.Peer == "dead" && (h.Healthy || h.ConsecutiveFailures == 0) {
			t.Fatalf("dead peer should be unhealthy: %+v", h)
		}
	}
}

func TestHandlerPanicIsInternal(t *testing.T) {
	srv := NewServer()
	srv.Handle("boom", func(ctx context.Context, body json.RawMessage) (any, error) {
		panic("kapow")
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	err = conn.Call(context.Background(), "boom", nil, nil)
	if status.CodeOf(err) != status.Internal {
		t.Fatalf("got %v, want Internal", err)
	}
	// The connection survives the panic.
	srv.Handle("ok", func(ctx context.Context, body json.RawMessage) (any, error) { return nil, nil })
	if err := conn.Call(context.Background(), "ok", nil, nil); err != nil {
		t.Fatalf("call after panic: %v", err)
	}
}

func TestLargeFrames(t *testing.T) {
	_, addr := startEchoServer(t)
	conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte('a' + i%26)
	}
	var resp echoResp
	if err := conn.Call(context.Background(), "echo", echoReq{Msg: string(big)}, &resp); err != nil {
		t.Fatalf("1MiB call: %v", err)
	}
	if resp.Msg != string(big) {
		t.Fatal("large payload corrupted in transit")
	}
}

func BenchmarkLoopbackCall(b *testing.B) {
	srv := NewServer()
	srv.Handle("echo", func(ctx context.Context, body json.RawMessage) (any, error) {
		var req echoReq
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		return echoResp(req), nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	conn, err := Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	req := echoReq{Msg: "payload-of-reasonable-size-for-a-storage-get", N: 7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var resp echoResp
		if err := conn.Call(context.Background(), "echo", req, &resp); err != nil {
			b.Fatal(err)
		}
	}
	_ = fmt.Sprint()
}

// TestFrameGolden pins the frame layout byte for byte: a request with and
// without caller metadata, an empty and an error response.
func TestFrameGolden(t *testing.T) {
	seal := func(frame []byte, id uint64) string {
		if err := seal(frame); err != nil {
			t.Fatal(err)
		}
		binary.BigEndian.PutUint64(frame[idOff:], id)
		return hex.EncodeToString(frame)
	}
	// length 12 | version 1 | flags 0 | id 7 | "get" | body "k".
	bare := append(appendRequest(nil, "get", reqctx.Meta{}, 0), 'k')
	if got, want := seal(bare, 7), "0000000f"+"01"+"00"+"0000000000000007"+"03676574"+"6b"; got != want {
		t.Errorf("bare request\n  %s\nwant\n  %s", got, want)
	}
	// flags 2 (meta) | ... | qos 1 | deadline 300 | "r1" | "db".
	full := appendRequest(nil, "get", reqctx.Meta{RequestID: "r1", DB: "db", QoS: reqctx.Batch}, 300)
	if got, want := seal(full, 7), "00000017"+"01"+"02"+"0000000000000007"+"03676574"+"01"+"ac02"+"027231"+"026462"; got != want {
		t.Errorf("request with metadata\n  %s\nwant\n  %s", got, want)
	}
	// flags 1 (response) | id 7 | body "v".
	ok := append(appendResponse(nil, 7, status.OK, ""), 'v')
	if got, want := seal(ok, 7), "0000000b"+"01"+"01"+"0000000000000007"+"76"; got != want {
		t.Errorf("response\n  %s\nwant\n  %s", got, want)
	}
	// flags 5 (response, error) | id 7 | code 6 (Aborted) | "no".
	failed := appendResponse(nil, 7, status.Aborted, "no")
	if got, want := seal(failed, 7), "0000000e"+"01"+"05"+"0000000000000007"+"06"+"026e6f"; got != want {
		t.Errorf("error response\n  %s\nwant\n  %s", got, want)
	}
	for _, frame := range [][]byte{bare, full, ok, failed} {
		h, body, err := parseFrame(frame[prefixLen:])
		if err != nil || h.id != 7 {
			t.Fatalf("parseFrame(%x) = %+v, %v", frame, h, err)
		}
		var again []byte
		if h.flags&flagResponse != 0 {
			again = appendResponse(nil, h.id, status.Code(h.code), string(h.msg))
		} else {
			meta := reqctx.Meta{RequestID: string(h.rid), DB: string(h.db), QoS: reqctx.QoS(h.qos)}
			again = appendRequest(nil, string(h.method), meta, int64(h.deadline))
		}
		if got := seal(append(again, body...), h.id); got != hex.EncodeToString(frame) {
			t.Errorf("frame %x re-encodes as %s", frame, got)
		}
	}
}

// TestUnknownVersionRefused: a peer that speaks another frame version —
// the parent commit's JSON framing included, whose payloads begin with a
// zero byte — is told so and disconnected, and the server keeps serving.
func TestUnknownVersionRefused(t *testing.T) {
	_, addr := startEchoServer(t)
	for _, payload := range []string{
		"\x09\x00\x00\x00\x00\x00\x00\x00\x00\x07\x04echo",
		"\x00\x00\x00\x13" + `{"id":1,"m":"echo"}` + `{}`,
	} {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		frame := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
		if _, err := nc.Write(append(frame, payload...)); err != nil {
			t.Fatal(err)
		}
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		reply, err := readFrame(bufio.NewReader(nc), nil)
		if err != nil {
			t.Fatalf("reading the refusal: %v", err)
		}
		h, _, err := parseFrame(reply)
		if err != nil || h.id != 0 || status.Code(h.code) != status.InvalidArgument || !strings.Contains(string(h.msg), "version") {
			t.Errorf("refusal = %+v (%q), %v; want InvalidArgument naming the version", h, h.msg, err)
		}
		if _, err := nc.Read(make([]byte, 1)); err != io.EOF {
			t.Errorf("after the refusal: read err = %v, want EOF", err)
		}
		nc.Close()
	}
	conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var resp echoResp
	if err := conn.Call(context.Background(), "echo", echoReq{N: 4}, &resp); err != nil || resp.N != 8 {
		t.Fatalf("call after the refusals: %+v, %v", resp, err)
	}
}

// TestLengthPrefixAloneAllocatesLittle: a 64 MiB length prefix followed by
// nothing costs a chunk, not 64 MiB.
func TestLengthPrefixAloneAllocatesLittle(t *testing.T) {
	in := append(binary.BigEndian.AppendUint32(nil, MaxFrame), "only this much"...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFrame(bufio.NewReader(bytes.NewReader(in)), nil)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a truncated frame was accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*frameChunk {
		t.Errorf("readFrame allocated %d bytes for a %d-byte input", grew, len(in))
	}
}

// FuzzReadFrame: arbitrary bytes never panic the frame reader, yield an
// error or a frame that re-encodes, and cost memory in proportion to the
// input, whatever its length prefix claims.
func FuzzReadFrame(f *testing.F) {
	f.Add(seeded(append(appendRequest(nil, "engine.get", reqctx.Meta{RequestID: "r", DB: "d", QoS: reqctx.Batch}, 9), "body"...)))
	f.Add(seeded(append(appendResponse(nil, 3, status.OK, ""), "body"...)))
	f.Add(seeded(appendResponse(nil, 3, status.Aborted, "conflict")))
	f.Add(binary.BigEndian.AppendUint32(nil, MaxFrame))
	f.Fuzz(func(t *testing.T, in []byte) {
		payload, err := readFrame(bufio.NewReader(bytes.NewReader(in)), nil)
		if err != nil {
			return
		}
		if cap(payload) > 2*len(in)+frameChunk {
			t.Fatalf("%d-byte input grew a %d-byte buffer", len(in), cap(payload))
		}
		h, body, err := parseFrame(payload)
		if err != nil {
			if status.CodeOf(err) != status.InvalidArgument {
				t.Fatalf("parseFrame: %v, want InvalidArgument", err)
			}
			return
		}
		if len(body) > len(payload) || h.flags&flagResponse == 0 && len(h.method) > len(payload) {
			t.Fatalf("header %+v and %d-byte body out of a %d-byte payload", h, len(body), len(payload))
		}
	})
}

func seeded(frame []byte) []byte {
	if err := seal(frame); err != nil {
		panic(err)
	}
	return frame
}

// TestDoAllocs bounds a byte-level round trip on both sides together: the
// response's payload and the serving goroutine, not a slot, a channel, a
// header or a frame buffer per call.
func TestDoAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts mean nothing under -race")
	}
	srv := NewServer()
	srv.HandleBytes("echo", func(_ context.Context, body, reply []byte) ([]byte, error) {
		return append(reply, body...), nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body := bytes.Repeat([]byte("x"), 1024)
	enc := func(b []byte) []byte { return append(b, body...) }
	if got := testing.AllocsPerRun(200, func() {
		if resp, err := conn.Do(context.Background(), "echo", enc); err != nil || len(resp) != len(body) {
			t.Fatalf("Do = %d bytes, %v", len(resp), err)
		}
	}); got > 4 {
		t.Errorf("Do round trip: %.0f allocs, want <= 4", got)
	}
}

// TestSetObsCarriesCounts: Health reads the instruments, so swapping the
// registry must not restart a peer's counts.
func TestSetObsCarriesCounts(t *testing.T) {
	_, addr := startEchoServer(t)
	pool := NewPool(nil)
	defer pool.Close()
	pool.SetPeer("t1", addr)
	call := func() {
		if _, err := pool.Do(context.Background(), "t1", "echo", echoEnc(1)); err != nil {
			t.Fatal(err)
		}
	}
	call()
	reg := obs.NewRegistry()
	pool.SetObs(reg)
	call()
	if h := pool.Health(); len(h) != 1 || h[0].Calls != 2 || h[0].Errors != 0 {
		t.Fatalf("health after SetObs = %+v, want 2 calls", h)
	}
	if got := reg.Counter("transport.rpcs_total", obs.Labels{"peer": "t1", "method": "echo"}).Value(); got != 2 {
		t.Fatalf("transport.rpcs_total in the new registry = %d, want 2", got)
	}
}
