package transport

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"firestore/internal/reqctx"
	"firestore/internal/status"
)

// BytesHandler serves one RPC method at the byte level. The ctx carries
// the caller's reqctx metadata and absolute deadline (propagated in the
// frame header). body is the request body, in a pooled buffer: it is valid
// only until the handler returns, so whatever must outlive the call is
// copied out. The handler appends the response body to reply, a response
// frame under construction, and returns it; a returned error is mapped to
// a canonical status code with status.CodeOf and travels instead.
type BytesHandler func(ctx context.Context, body, reply []byte) ([]byte, error)

// Handler is a BytesHandler with JSON bodies: body is the request's JSON
// payload (only valid until the handler returns), the returned value is
// marshaled as the response body.
type Handler func(ctx context.Context, body json.RawMessage) (any, error)

// Server listens for frame connections and dispatches requests to
// registered method handlers, each on its own goroutine.
type Server struct {
	// handlers is replaced, never mutated, by Handle: dispatch reads it
	// without a lock.
	handlers atomic.Pointer[map[string]BytesHandler]

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer returns a server with no handlers and no listener.
func NewServer() *Server {
	s := &Server{conns: map[net.Conn]struct{}{}}
	s.handlers.Store(&map[string]BytesHandler{})
	return s
}

// HandleBytes registers h for method. Must be called before the first
// connection arrives for deterministic behavior; re-registering replaces.
func (s *Server) HandleBytes(method string, h BytesHandler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	handlers := maps.Clone(*s.handlers.Load())
	handlers[method] = h
	s.handlers.Store(&handlers)
}

// Handle registers the JSON handler h for method, as HandleBytes does.
func (s *Server) Handle(method string, h Handler) {
	s.HandleBytes(method, func(ctx context.Context, body, reply []byte) ([]byte, error) {
		out, err := h(ctx, body)
		if err != nil || out == nil {
			return reply, err
		}
		b, err := json.Marshal(out)
		if err != nil {
			return reply, status.Errorf(status.Internal, "transport", "marshaling %q response: %v", method, err)
		}
		return append(reply, b...), nil
	})
}

// Listen binds addr (e.g. "127.0.0.1:0") and starts accepting in the
// background, returning the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", status.Errorf(status.Unavailable, "transport", "listen %s: %v", addr, err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return "", status.New(status.Unavailable, "transport", "server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.serve(ln)
	}()
	return ln.Addr().String(), nil
}

func (s *Server) serve(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !s.track(conn) {
			conn.Close()
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.ServeConn(conn)
		}()
	}
}

func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, conn)
}

// ServeConn serves one already-established connection (the accept loop
// uses it; tests can pass one half of a net.Pipe for a loopback
// transport with no listener). It returns when the connection closes.
func (s *Server) ServeConn(conn net.Conn) {
	defer conn.Close()
	defer s.untrack(conn)
	var wmu sync.Mutex // serializes response frames from handler goroutines
	write := func(frame []byte) {
		err := seal(frame)
		if err == nil {
			wmu.Lock()
			_, err = conn.Write(frame)
			wmu.Unlock()
		}
		if err != nil {
			conn.Close() // the read loop will observe it and exit
		}
	}
	var handlers sync.WaitGroup
	defer handlers.Wait()
	br := bufio.NewReaderSize(conn, 32<<10)
	for {
		in := getBuf()
		payload, err := readFrame(br, *in)
		var h header
		var body []byte
		if err == nil {
			h, body, err = parseFrame(payload)
		}
		if err == nil && h.flags&flagResponse != 0 {
			err = malformed("response on a server connection")
		}
		if err != nil {
			// A frame this peer cannot read (another version, garbage) is
			// refused in so many words, as the response to a call nobody
			// made, and the connection dropped: framing is lost for good.
			if status.CodeOf(err) == status.InvalidArgument {
				write(appendResponse(nil, 0, status.InvalidArgument, err.Error()))
			}
			return
		}
		handlers.Add(1)
		go func() {
			defer handlers.Done()
			// The request's buffer goes back to the pool once the handler
			// is done with the body, the response's once it is written.
			out := getBuf()
			frame := s.dispatch(h, body, *out)
			putBuf(in, payload)
			write(frame)
			putBuf(out, frame)
		}()
	}
}

// dispatch runs one request through its handler, rebuilding the caller's
// request context (metadata + deadline) on this side of the wire, and
// returns the response frame, built in buf.
func (s *Server) dispatch(req header, body, buf []byte) (frame []byte) {
	fail := func(code status.Code, msg string) []byte {
		return appendResponse(buf[:0], req.id, code, msg)
	}
	defer func() {
		if r := recover(); r != nil {
			frame = fail(status.Internal, fmt.Sprintf("transport: handler panic: %v", r))
		}
	}()
	h := (*s.handlers.Load())[string(req.method)]
	if h == nil {
		return fail(status.NotFound, fmt.Sprintf("transport: no handler for method %q", req.method))
	}
	ctx := context.Background()
	if req.deadline != 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, time.Unix(0, int64(req.deadline)))
		defer cancel()
	}
	if len(req.rid) > 0 || len(req.db) > 0 || req.qos != 0 {
		ctx = reqctx.With(ctx, reqctx.Meta{RequestID: string(req.rid), DB: string(req.db), QoS: reqctx.QoS(req.qos)})
	}
	frame, err := h(ctx, body, appendResponse(buf[:0], req.id, status.OK, ""))
	if err != nil {
		code := status.CodeOf(err)
		if code == status.OK {
			code = status.Internal
		}
		return fail(code, err.Error())
	}
	return frame
}

// Close stops the listener, closes every live connection, and waits for
// in-flight handlers to drain.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}
