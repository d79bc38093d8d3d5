package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"firestore/internal/reqctx"
	"firestore/internal/status"
)

// DialTimeout bounds how long establishing a peer connection may take; a
// dead peer should fail fast so recovery loops can spin cheaply until it
// rejoins.
const DialTimeout = 2 * time.Second

// Conn is one client connection. It carries one call at a time: Do writes
// the request and reads the response on the caller's goroutine, and
// goroutines that share a Conn take turns. A Conn that hits a read or
// write error is broken for good (this and every later call fail with
// ErrPeerUnreachable); the Pool re-dials.
type Conn struct {
	nc  net.Conn
	err atomic.Pointer[error] // set once, when the connection breaks

	mu     sync.Mutex // held for a whole call
	br     *bufio.Reader
	nextID uint64
}

var aLongTimeAgo = time.Unix(1, 0) // a deadline that cuts a blocked read short

// Dial connects to a peer's transport address.
func Dial(addr string) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, DialTimeout)
	if err != nil {
		return nil, unreachable(err)
	}
	return &Conn{nc: nc, br: bufio.NewReaderSize(nc, 32<<10)}, nil
}

// fail breaks the connection, unless it is broken already, and returns
// the error every call on it fails with from now on.
func (c *Conn) fail(cause error) error {
	if cause == nil || isClosedConn(cause) {
		cause = status.New(status.Unavailable, "transport", "connection closed")
	}
	err := unreachable(cause)
	c.err.CompareAndSwap(nil, &err)
	c.nc.Close()
	return *c.err.Load()
}

// Broken reports whether the connection has failed and must be replaced.
func (c *Conn) Broken() bool { return c.err.Load() != nil }

// Close tears the connection down; a call in flight on it fails.
func (c *Conn) Close() { c.fail(nil) }

// Do performs one RPC at the byte level: enc (nil = an empty body)
// appends the request body to the frame under construction, and the
// response body comes back in memory the caller owns. The ctx's reqctx
// metadata and deadline travel in the frame header. A ctx that ends
// abandons the response, not the request: the ctx's deadline cuts the
// read short or, for a ctx without one, its cancellation. Transport-level
// failures wrap ErrPeerUnreachable; remote application errors come back
// with their canonical status code intact.
func (c *Conn) Do(ctx context.Context, method string, enc func([]byte) []byte) ([]byte, error) {
	return c.do(ctx, method, enc, true)
}

// do is Do. Without read it breaks the connection once the request is
// sent, leaving the response unread: the transport.half-open fault.
func (c *Conn) do(ctx context.Context, method string, enc func([]byte) []byte, read bool) ([]byte, error) {
	deadline, hasDeadline := ctx.Deadline()
	var unixNano int64
	if hasDeadline {
		unixNano = deadline.UnixNano()
	}
	bp := getBuf()
	frame := appendRequest(*bp, method, reqctx.From(ctx), unixNano)
	if enc != nil {
		frame = enc(frame)
	}
	defer func() { putBuf(bp, frame) }()
	if err := seal(frame); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	id, err := c.send(ctx, frame, deadline)
	if !read {
		c.Close()
		return nil, err
	}
	if err != nil {
		return nil, err
	}
	if !hasDeadline && ctx.Done() != nil {
		fired := make(chan struct{})
		stop := context.AfterFunc(ctx, func() {
			c.nc.SetReadDeadline(aLongTimeAgo)
			close(fired)
		})
		defer func() {
			if !stop() {
				<-fired // it takes no lock; once done it cannot cut short the next call's read
			}
		}()
	}
	return c.receive(ctx, id)
}

// Call is Do with JSON bodies: req is marshaled as the request body (nil
// = empty), the response body (if any) is unmarshaled into resp (which
// may be nil).
func (c *Conn) Call(ctx context.Context, method string, req, resp any) error {
	var enc func([]byte) []byte
	if req != nil {
		b, err := json.Marshal(req)
		if err != nil {
			return status.Errorf(status.InvalidArgument, "transport", "marshaling %q request: %v", method, err)
		}
		enc = func(buf []byte) []byte { return append(buf, b...) }
	}
	body, err := c.Do(ctx, method, enc)
	if err != nil || resp == nil || len(body) == 0 {
		return err
	}
	if err := json.Unmarshal(body, resp); err != nil {
		return status.Errorf(status.Internal, "transport", "unmarshaling %q response: %v", method, err)
	}
	return nil
}

// send writes frame under the next frame ID and returns the ID. The
// deadline, zero for none, bounds the write and the read that follows.
func (c *Conn) send(ctx context.Context, frame []byte, deadline time.Time) (uint64, error) {
	if err := c.err.Load(); err != nil {
		return 0, *err
	}
	c.nc.SetDeadline(deadline)
	c.nextID++
	binary.BigEndian.PutUint64(frame[idOff:], c.nextID)
	if n, err := c.nc.Write(frame); err != nil {
		if n == 0 && errors.Is(err, os.ErrDeadlineExceeded) {
			return 0, abandoned(ctx) // nothing sent: the connection is whole
		}
		return 0, c.fail(err)
	}
	return c.nextID, nil
}

// receive reads responses until the one to frame id. A response to an
// earlier frame is the late answer to a call abandoned on this
// connection, and is skipped.
func (c *Conn) receive(ctx context.Context, id uint64) ([]byte, error) {
	for {
		// A read cut short before a response begins abandons the call and
		// leaves the connection whole; one cut off mid-frame breaks it.
		if _, err := c.br.Peek(prefixLen); err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				return nil, abandoned(ctx)
			}
			return nil, c.fail(err)
		}
		// A response's payload is its own allocation, never pooled: the
		// body and whatever the caller decodes out of it alias these bytes.
		payload, err := readFrame(c.br, nil)
		var h header
		var body []byte
		if err == nil {
			h, body, err = parseFrame(payload)
		}
		if err == nil && h.flags&flagResponse == 0 {
			err = malformed("request %q on a client connection", h.method)
		}
		if err == nil && h.id > id {
			err = malformed("response to frame %d, which was never sent", h.id)
		}
		if err != nil {
			return nil, c.fail(err)
		}
		if h.id == id {
			return body, h.remoteError()
		}
	}
}

// abandoned is the error of a call whose ctx ended before its response
// came: the ctx's own, or DeadlineExceeded when the connection's deadline
// fired before the ctx's timer did.
func abandoned(ctx context.Context) error {
	err := ctx.Err()
	if err == nil {
		err = context.DeadlineExceeded
	}
	return status.FromContext("transport", err)
}
