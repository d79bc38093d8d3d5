// Package transport is the cluster wire protocol: a minimal stdlib-only
// RPC layer the coordinator process and tablet-server processes speak to
// each other (§III: the production system is a fleet of separate
// services — frontends, backends, tablet servers — talking over a
// network; until this layer existed the reproduction ran everything in
// one process and network failure was unrepresentable).
//
// Framing is deliberately boring and moves bytes only: a frame is built
// in one pooled buffer and written with one Write.
//
//	u32 payload length | version | flags | u64 frame ID | fields | body
//
// A request's fields are its method name and, only if the caller's context
// carries any, QoS, absolute deadline, request ID and database; an error
// response's are its status code and message. Every number past the ID is
// a uvarint and every string follows its length. A peer that leads with
// another version byte is refused with InvalidArgument and disconnected:
// both ends share the version, nothing is negotiated. What a body holds is
// its method's business: Conn.Do and Server.HandleBytes pass bytes, Call
// and Handle are the JSON adapter over them, and DESIGN.md "The wire" says
// who owns those bytes when. A single TCP connection multiplexes many
// in-flight calls, matched by frame ID; the server executes each request
// on its own goroutine, so a slow RPC does not head-of-line block the
// connection.
//
// This package owns every net.Dial and net.Listen in the repository
// outside cmd/ — the fslint netdiscipline analyzer enforces it — so the
// fault plane's network sites (transport.partition, transport.slow-link,
// transport.half-open, transport.conn-reset) cover every byte that
// crosses a process boundary.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"firestore/internal/reqctx"
	"firestore/internal/status"
)

// MaxFrame bounds a single frame's payload. Tablet-migration chunks are
// the largest frames in practice (storage.MaxScanBytes, 4 MiB, plus one
// chain); 64 MiB leaves an order of magnitude of headroom over them.
const MaxFrame = 64 << 20

// frameChunk is the largest payload read in one piece, into a buffer sized
// from its length prefix, and the largest buffer the pool keeps. A longer
// payload's buffer grows only as its bytes arrive.
const frameChunk = 64 << 10

// frameVersion leads every payload. 0 was never assigned: the pre-binary
// framing's payloads began with it.
const frameVersion = 1

// Flag bits: the direction, and which optional fields follow. A new
// optional field is a new bit.
const (
	flagResponse = 1 << iota
	flagMeta     // request: QoS, deadline, request ID, database
	flagError    // response: status code, message
)

// A frame's fixed part: the length prefix, then version, flags and ID, the
// first headLen bytes of the payload.
const (
	prefixLen = 4
	flagsOff  = prefixLen + 1
	idOff     = prefixLen + 2
	headLen   = 10
)

// ErrPeerUnreachable marks a transport-level failure: the call never
// produced a response frame (dial failure, connection reset, partition,
// response lost). The work may or may not have happened on the peer.
// Detect with errors.Is; remote application errors do NOT wrap it.
var ErrPeerUnreachable = status.New(status.Unavailable, "transport", "peer unreachable")

// unreachable wraps a transport-level cause so errors.Is(err,
// ErrPeerUnreachable) holds on it.
func unreachable(cause error) error {
	return fmt.Errorf("%w: %v", ErrPeerUnreachable, cause)
}

func malformed(format string, args ...any) error {
	return status.Errorf(status.InvalidArgument, "transport", "malformed frame: "+format, args...)
}

// frameBufs pools the buffers frames are built in and request payloads
// are read into.
var frameBufs = sync.Pool{New: func() any { return new([]byte) }}

func getBuf() *[]byte { return frameBufs.Get().(*[]byte) }

// putBuf returns bp to the pool holding buf, the slice it grew into.
func putBuf(bp *[]byte, buf []byte) {
	if cap(buf) <= frameChunk {
		*bp = buf[:0]
		frameBufs.Put(bp)
	}
}

// header is a parsed frame header. Its slices alias the payload. (128
// bytes: what a go statement's closure still captures by value.)
type header struct {
	id    uint64
	flags byte
	// Request: the method and the caller's reqctx metadata and deadline
	// (absolute, unix nanoseconds).
	qos             uint32
	deadline        uint64
	method, rid, db []byte
	// Response: canonical status code (0 = OK) and error message.
	code uint32
	msg  []byte
}

func appendString(buf []byte, s string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

// appendRequest starts a request frame: everything but the body, with the
// length and the frame ID left for seal and send.
func appendRequest(buf []byte, method string, meta reqctx.Meta, deadline int64) []byte {
	buf = append(buf, 0, 0, 0, 0, frameVersion, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	buf = appendString(buf, method)
	if meta != (reqctx.Meta{}) || deadline != 0 {
		buf[flagsOff] = flagMeta
		buf = binary.AppendUvarint(binary.AppendUvarint(buf, uint64(meta.QoS)), uint64(deadline))
		buf = appendString(appendString(buf, meta.RequestID), meta.DB)
	}
	return buf
}

// appendResponse starts a response frame; a non-zero code makes it an
// error response, which carries no body.
func appendResponse(buf []byte, id uint64, code status.Code, msg string) []byte {
	buf = append(buf, 0, 0, 0, 0, frameVersion, flagResponse)
	buf = binary.BigEndian.AppendUint64(buf, id)
	if code != status.OK {
		buf[flagsOff] |= flagError
		buf = appendString(binary.AppendUvarint(buf, uint64(code)), msg)
	}
	return buf
}

// seal completes a frame whose body has been appended: it fills in the
// length prefix and refuses a payload beyond MaxFrame.
func seal(frame []byte) error {
	n := len(frame) - prefixLen
	if n > MaxFrame {
		return status.Errorf(status.InvalidArgument, "transport", "frame of %d bytes exceeds MaxFrame", n)
	}
	binary.BigEndian.PutUint32(frame, uint32(n))
	return nil
}

// readFrame reads one frame's payload into buf[:0], growing it as needed.
// A payload up to frameChunk is read in one piece; a longer one chunk by
// chunk, the buffer doubling only while bytes actually arrive.
func readFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	pfx, err := r.Peek(prefixLen)
	if err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(pfx))
	if n > MaxFrame {
		return nil, malformed("%d bytes exceed MaxFrame", n)
	}
	r.Discard(prefixLen) //nolint:errcheck // just peeked
	buf = buf[:0]
	for len(buf) < n {
		have := len(buf)
		buf = slices.Grow(buf, min(n-have, max(have, frameChunk)))
		buf = buf[:min(n, cap(buf))]
		if _, err := io.ReadFull(r, buf[have:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// parseFrame splits a payload into its header and body, both aliasing it.
func parseFrame(payload []byte) (h header, body []byte, err error) {
	if len(payload) < headLen {
		return h, nil, malformed("%d-byte payload", len(payload))
	}
	if payload[0] != frameVersion {
		return h, nil, malformed("version %d, this peer speaks %d", payload[0], frameVersion)
	}
	h.flags, h.id = payload[1], binary.BigEndian.Uint64(payload[2:])
	p, ok := payload[headLen:], true
	uvarint := func() uint64 {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			ok, n = false, 0
		}
		p = p[n:]
		return v
	}
	str := func() []byte {
		n := uvarint()
		if n > uint64(len(p)) {
			ok, n = false, 0
		}
		b := p[:n]
		p = p[n:]
		return b
	}
	has := func(flag byte) bool { return h.flags&flag != 0 }
	switch {
	case !has(flagResponse):
		h.method = str()
		if has(flagMeta) {
			h.qos, h.deadline, h.rid, h.db = uint32(uvarint()), uvarint(), str(), str()
		}
	case has(flagError):
		h.code, h.msg = uint32(uvarint()), str()
		ok = ok && h.code != 0
	}
	if !ok {
		return h, nil, malformed("truncated header")
	}
	return h, p, nil
}

// remoteError reconstructs a response's error on the caller side. The
// canonical code survives the wire; the message keeps the remote layer's
// own rendering.
func (h *header) remoteError() error {
	if h.code == 0 {
		return nil
	}
	return &status.Error{Code: status.Code(h.code), Layer: "remote", Msg: string(h.msg)}
}

// isClosedConn reports errors that just mean the connection went away.
func isClosedConn(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.ErrClosedPipe)
}
