package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"firestore/internal/truetime"
)

// WAL record types.
const (
	recCommit byte = 1 // a transaction's writes at one commit timestamp
	recIngest byte = 2 // full chains received from a split/merge
	recPurge  byte = 3 // purge markers left behind by a split
)

// castagnoli is the CRC polynomial used for WAL frames and segment
// checksums (the same choice as iSCSI and most storage systems: better
// error detection than IEEE for short records).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameHeaderSize is the per-frame overhead: u32 payload length + u32
// CRC32-C of the payload.
const frameHeaderSize = 8

// maxFrameSize bounds a single WAL record; a length prefix beyond it is
// treated as a torn tail rather than an allocation request.
const maxFrameSize = 64 << 20

// walFrame is one WAL record built in place in a pooled buffer: the
// header's room, the type byte, the payload appended behind them, and
// then seal patches in the length and the CRC. The buffer goes back to the
// pool once WriteAt has returned, unless it grew past maxPooledFrame.
type walFrame struct{ b []byte }

const maxPooledFrame = 1 << 20

var walFrames = sync.Pool{New: func() any { return &walFrame{b: make([]byte, 0, 4<<10)} }}

func newFrame(kind byte) *walFrame {
	fr := walFrames.Get().(*walFrame)
	fr.b = append(fr.b[:0], 0, 0, 0, 0, 0, 0, 0, 0, kind)
	return fr
}

// seal writes the header: the length and CRC-32C of the payload behind it.
func (fr *walFrame) seal() {
	payload := fr.b[frameHeaderSize:]
	binary.LittleEndian.PutUint32(fr.b[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(fr.b[4:8], crc32.Checksum(payload, castagnoli))
}

func (fr *walFrame) release() {
	if cap(fr.b) > maxPooledFrame {
		fr.b = nil
	}
	walFrames.Put(fr)
}

// errTornFrame reports a frame that is incomplete or fails its checksum:
// the replay must stop and truncate here (prefix-consistent recovery).
var errTornFrame = fmt.Errorf("storage: torn or corrupt frame")

// readFrame reads one framed payload from r, of which remain bytes are
// left. io.EOF means a clean end: of the file, or of its records at a
// zero length (the reservation; no record is empty). errTornFrame means
// a partial or corrupt tail. A length prefix is believed only up to the
// bytes that remain, so a torn tail costs its own size, not the 64 MiB
// its prefix may claim.
func readFrame(r io.Reader, remain int64) ([]byte, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, errTornFrame
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n == 0 {
		return nil, io.EOF
	}
	if n > maxFrameSize || int64(n) > remain-frameHeaderSize {
		return nil, errTornFrame
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, errTornFrame
	}
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, errTornFrame
	}
	return payload, nil
}

// walRecord is a decoded WAL record.
type walRecord struct {
	kind   byte
	ts     truetime.Timestamp // recCommit only
	writes []Write            // recCommit
	chains []Chain            // recIngest
	keys   [][]byte           // recPurge
}

// The append functions and the Decoder below are the one binary encoding
// of writes, versions, chains, rows and point-read results: WAL records,
// segment files and internal/cluster's engine-plane bodies all carry these
// bytes (DESIGN.md "The wire").

// AppendBytes appends b behind its uvarint length.
func AppendBytes(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

func appendVersion(buf []byte, v Version) []byte {
	buf = binary.AppendUvarint(buf, uint64(v.TS))
	buf = append(buf, Flag(v.Deleted))
	return AppendBytes(buf, v.Value)
}

// Flag is a flags byte's low bit.
func Flag(set bool) byte {
	if set {
		return 1
	}
	return 0
}

// AppendWrites appends a batch and its commit timestamp: a recCommit
// record behind its type byte, an engine.apply body behind its handle.
func AppendWrites(buf []byte, writes []Write, ts truetime.Timestamp) []byte {
	buf = binary.AppendUvarint(buf, uint64(ts))
	buf = binary.AppendUvarint(buf, uint64(len(writes)))
	for _, w := range writes {
		buf = AppendBytes(buf, w.Key)
		buf = append(buf, Flag(w.Delete))
		buf = AppendBytes(buf, w.Value)
	}
	return buf
}

// ingestFrame builds a recIngest record.
func ingestFrame(chains []Chain) *walFrame {
	fr := newFrame(recIngest)
	fr.b = binary.AppendUvarint(fr.b, uint64(len(chains)))
	for _, c := range chains {
		fr.b = AppendChain(fr.b, c)
	}
	return fr
}

// purgeFrame builds a recPurge record.
func purgeFrame(keys [][]byte) *walFrame {
	fr := newFrame(recPurge)
	fr.b = binary.AppendUvarint(fr.b, uint64(len(keys)))
	for _, k := range keys {
		fr.b = AppendBytes(fr.b, k)
	}
	return fr
}

// AppendChain encodes one chain (WAL ingest records, segment files,
// engine.chains and engine.ingest bodies).
func AppendChain(buf []byte, c Chain) []byte {
	buf = AppendBytes(buf, c.Key)
	buf = append(buf, Flag(c.Purged))
	buf = binary.AppendUvarint(buf, uint64(len(c.Versions)))
	for _, v := range c.Versions {
		buf = appendVersion(buf, v)
	}
	return buf
}

// AppendRow encodes one scan row.
func AppendRow(buf []byte, r Row) []byte {
	buf = AppendBytes(buf, r.Key)
	buf = binary.AppendUvarint(buf, uint64(r.TS))
	return AppendBytes(buf, r.Value)
}

// AppendBatchGet encodes one point-read result.
func AppendBatchGet(buf []byte, g BatchGet) []byte {
	buf = append(buf, Flag(g.OK))
	buf = binary.AppendUvarint(buf, uint64(g.TS))
	return AppendBytes(buf, g.Value)
}

// Decoder walks an encoded payload. The first malformed field fails it
// for good: every later read returns a zero value, and Err reports it.
type Decoder struct {
	buf  []byte
	off  int
	err  error
	copy bool
}

// NewDecoder decodes payload. Decoded byte fields alias payload unless
// copy is set, which gives each its own exact-size allocation: what a
// reader does whose payload is a pooled buffer and whose engine keeps what
// it is handed. Either way an empty field decodes as nil and pins nothing.
func NewDecoder(payload []byte, copy bool) *Decoder {
	return &Decoder{buf: payload, copy: copy}
}

// Err is nil if every field so far was well-formed.
func (r *Decoder) Err() error { return r.err }

// Finish is Err, or an error if bytes remain undecoded.
func (r *Decoder) Finish() error {
	if r.err == nil && r.off != len(r.buf) {
		r.err = errTornFrame
	}
	return r.err
}

func (r *Decoder) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.err = errTornFrame
		return 0
	}
	r.off += n
	return v
}

// Count reads an element count and refuses one the remaining bytes cannot
// hold at min bytes an element, so a caller may size a slice from it.
func (r *Decoder) Count(min int) int {
	n := r.Uvarint()
	if n > uint64((len(r.buf)-r.off)/min) {
		r.err = errTornFrame
		return 0
	}
	return int(n)
}

func (r *Decoder) Bytes() []byte {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	if r.copy {
		b = bytes.Clone(b)
	}
	return b
}

func (r *Decoder) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.err = errTornFrame
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// Bool reads a flag byte written by the append functions.
func (r *Decoder) Bool() bool { return r.Byte()&1 != 0 }

// Writes decodes what AppendWrites wrote.
func (r *Decoder) Writes() (writes []Write, ts truetime.Timestamp) {
	ts = truetime.Timestamp(r.Uvarint())
	if n := r.Count(3); n > 0 {
		writes = make([]Write, 0, n)
		for ; n > 0 && r.err == nil; n-- {
			writes = append(writes, Write{Key: r.Bytes(), Delete: r.Bool(), Value: r.Bytes()})
		}
	}
	return writes, ts
}

func (r *Decoder) version() Version {
	return Version{TS: truetime.Timestamp(r.Uvarint()), Deleted: r.Bool(), Value: r.Bytes()}
}

// Chain decodes what AppendChain wrote.
func (r *Decoder) Chain() Chain {
	c := Chain{Key: r.Bytes(), Purged: r.Bool()}
	if n := r.Count(3); n > 0 {
		c.Versions = make([]Version, 0, n)
		for ; n > 0 && r.err == nil; n-- {
			c.Versions = append(c.Versions, r.version())
		}
	}
	return c
}

// Row decodes what AppendRow wrote.
func (r *Decoder) Row() Row {
	return Row{Key: r.Bytes(), TS: truetime.Timestamp(r.Uvarint()), Value: r.Bytes()}
}

// BatchGet decodes what AppendBatchGet wrote.
func (r *Decoder) BatchGet() BatchGet {
	return BatchGet{OK: r.Bool(), TS: truetime.Timestamp(r.Uvarint()), Value: r.Bytes()}
}

// decodeRecord parses a framed WAL payload.
func decodeRecord(payload []byte) (walRecord, error) {
	if len(payload) == 0 {
		return walRecord{}, errTornFrame
	}
	r := &Decoder{buf: payload, off: 1}
	rec := walRecord{kind: payload[0]}
	switch rec.kind {
	case recCommit:
		rec.writes, rec.ts = r.Writes()
	case recIngest:
		for n := r.Count(3); n > 0 && r.err == nil; n-- {
			rec.chains = append(rec.chains, r.Chain())
		}
	case recPurge:
		for n := r.Count(1); n > 0 && r.err == nil; n-- {
			rec.keys = append(rec.keys, r.Bytes())
		}
	default:
		return walRecord{}, errTornFrame
	}
	return rec, r.err
}
