package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"net"
	"sync"
	"time"

	"firestore/internal/reqctx"
	"firestore/internal/status"
)

// DialTimeout bounds how long establishing a peer connection may take; a
// dead peer should fail fast so recovery loops can spin cheaply until it
// rejoins.
const DialTimeout = 2 * time.Second

// Conn is one multiplexed client connection: many concurrent Calls share
// it, matched to responses by frame ID. A Conn that hits a read or
// write error is broken for good (every pending and future call fails
// with ErrPeerUnreachable); the Pool re-dials.
type Conn struct {
	nc  net.Conn
	br  *bufio.Reader // owned by readLoop, the sole reader
	wmu sync.Mutex    // serializes request frames

	mu      sync.Mutex
	pending map[uint64]*callSlot
	nextID  uint64
	err     error // non-nil once broken; guarded by mu
}

// callSlot is one in-flight call's rendezvous with the read loop, reused
// across calls. Whoever removes it from pending owns it: the read loop and
// fail fill in the outcome and signal done, once; abandon recycles it.
type callSlot struct {
	id   uint64
	done chan struct{}
	body []byte
	err  error
}

var callSlots = sync.Pool{New: func() any { return &callSlot{done: make(chan struct{}, 1)} }}

// Dial connects to a peer's transport address.
func Dial(addr string) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, DialTimeout)
	if err != nil {
		return nil, unreachable(err)
	}
	return NewConn(nc), nil
}

// NewConn wraps an established connection (tests use net.Pipe halves)
// and starts its response-demultiplexing loop.
func NewConn(nc net.Conn) *Conn {
	c := &Conn{nc: nc, br: bufio.NewReaderSize(nc, 32<<10), pending: map[uint64]*callSlot{}}
	go c.readLoop()
	return c
}

func (c *Conn) readLoop() {
	for {
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
		if err != nil {
			c.fail(err)
			return
		}
		c.mu.Lock()
		slot := c.pending[h.id]
		delete(c.pending, h.id)
		c.mu.Unlock()
		if slot != nil {
			slot.body, slot.err = body, h.remoteError()
			slot.done <- struct{}{}
		}
		// A response with no waiter was abandoned (deadline, injected
		// half-open); drop it.
	}
}

// fail breaks the connection: every pending call is woken with the
// connection's error and future calls fail immediately.
func (c *Conn) fail(cause error) {
	c.mu.Lock()
	if c.err == nil {
		if cause == nil || isClosedConn(cause) {
			cause = status.New(status.Unavailable, "transport", "connection closed")
		}
		c.err = unreachable(cause)
	}
	err := c.err
	waiters := c.pending
	c.pending = map[uint64]*callSlot{}
	c.mu.Unlock()
	c.nc.Close()
	for _, slot := range waiters {
		slot.err = err
		slot.done <- struct{}{}
	}
}

// Broken reports whether the connection has failed and must be replaced.
func (c *Conn) Broken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err != nil
}

// Close tears the connection down; pending calls fail.
func (c *Conn) Close() {
	c.fail(nil)
}

// Reset hard-closes the underlying socket without the polite shutdown,
// modeling a peer RST (the transport.conn-reset fault site).
func (c *Conn) Reset() {
	c.nc.Close() // the read loop observes the error and fails the conn
}

// Do performs one RPC at the byte level: enc (nil = an empty body)
// appends the request body to the frame under construction, and the
// response body comes back in memory the caller owns. A ctx that is done
// abandons the response, not the request. The ctx's reqctx metadata and
// deadline travel in the frame header. Transport-level failures wrap
// ErrPeerUnreachable; remote application errors come back with their
// canonical status code intact.
func (c *Conn) Do(ctx context.Context, method string, enc func([]byte) []byte) ([]byte, error) {
	slot, err := c.send(ctx, method, enc)
	if err != nil {
		return nil, err
	}
	select {
	case <-slot.done:
	case <-ctx.Done():
		if c.abandon(slot) {
			return nil, status.FromContext("transport", ctx.Err())
		}
		<-slot.done // the read loop or fail took the slot first: its delivery is due
	}
	body, err := slot.body, slot.err
	slot.release()
	return body, err
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

// abandon unregisters a pending call, so the read loop drops its late
// response, and recycles its slot; false if the slot is already taken for
// delivery.
func (c *Conn) abandon(slot *callSlot) bool {
	c.mu.Lock()
	_, pending := c.pending[slot.id]
	delete(c.pending, slot.id)
	c.mu.Unlock()
	if pending {
		slot.release()
	}
	return pending
}

func (s *callSlot) release() {
	s.body, s.err = nil, nil
	callSlots.Put(s)
}

// send builds and writes one request frame, returning the slot its
// response, or a failure from here on, is delivered to.
func (c *Conn) send(ctx context.Context, method string, enc func([]byte) []byte) (*callSlot, error) {
	deadline, _ := ctx.Deadline() // the zero time when there is none
	var unixNano int64
	if !deadline.IsZero() {
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

	slot := callSlots.Get().(*callSlot)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		slot.release()
		return nil, err
	}
	c.nextID++
	slot.id = c.nextID
	c.pending[slot.id] = slot
	c.mu.Unlock()
	binary.BigEndian.PutUint64(frame[idOff:], slot.id)

	c.wmu.Lock()
	c.nc.SetWriteDeadline(deadline)
	_, err := c.nc.Write(frame)
	c.wmu.Unlock()
	if err != nil {
		c.fail(err) // wakes slot, unless an earlier failure already has
	}
	return slot, nil
}
