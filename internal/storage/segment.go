package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"firestore/internal/truetime"
)

// Segment file layout (all integers little-endian):
//
//	magic "FSSEG002" (8 bytes)
//	chains: AppendChain encoding, sorted by key, back to back
//	index: every sparseEvery-th chain: uvarint keyLen, key, uvarint offset
//	filter: a Bloom filter over the chains' keys, filterBitsPerKey bits each
//	footer (36 bytes):
//	    u64 index offset
//	    u64 filter offset
//	    u64 chain count
//	    u32 CRC32-C of [magic .. end of filter]
//	    magic "FSEND002" (8 bytes)
//
// Segments are immutable: written to a temp file, fsynced, renamed into
// place, and only then referenced by a manifest swap. Readers keep the
// sparse index and the filter in memory and pread chain groups on demand.
// The magic names the layout: a file of another version (FSSEG001 had no
// filter) fails to open rather than being misread.

const (
	segMagic      = "FSSEG002"
	segEndMagic   = "FSEND002"
	segFooterSize = 8 + 8 + 8 + 4 + 8
	// sparseEvery is the sparse-index stride: one index entry per this
	// many chains bounds a point lookup to parsing at most sparseEvery
	// chains after one pread.
	sparseEvery = 16
	// Ten bits a key probed seven times miss under 1 % of absent keys: a
	// point read preads the segments that hold its key and, one time in a
	// hundred each, one that does not.
	filterBitsPerKey = 10
	filterProbes     = 7
	segWriteBuf      = 64 << 10
)

func segmentName(n int) string { return fmt.Sprintf("seg-%08d.seg", n) }

// keyHash is what a segment's filter knows of a key.
func keyHash(key []byte) uint32 { return crc32.Checksum(key, castagnoli) }

// filterBits spreads a key hash (CRC-32C is linear in the key) into the
// start and the odd stride of its probe sequence.
func filterBits(h uint32) (at, step uint32) {
	x := uint64(h) * 0x9E3779B97F4A7C15
	return uint32(x >> 32), uint32(x) | 1
}

// segmentWriter streams chains, in key order, into one segment file:
// buffered, checksummed as it goes, holding of the chains it has written
// only their sparse index entries and their key hashes. Writers are
// pooled: the buffer and the scratch outlive any one flush or merge.
type segmentWriter struct {
	bw     *bufio.Writer
	crc    uint32
	off    int64
	index  []byte
	hashes []uint32
	maxTS  truetime.Timestamp
	buf    []byte // add's encoding scratch
	err    error  // the first write error; later writes are dropped
}

var segmentWriters = sync.Pool{New: func() any { return &segmentWriter{bw: bufio.NewWriterSize(nil, segWriteBuf)} }}

func (w *segmentWriter) write(b []byte) {
	if w.err != nil {
		return
	}
	w.crc = crc32.Update(w.crc, castagnoli, b)
	n, err := w.bw.Write(b)
	w.off += int64(n)
	w.err = err
}

// addEncoded appends the chain of key whose AppendChain encoding is enc
// and whose newest version is at last.
func (w *segmentWriter) addEncoded(key, enc []byte, last truetime.Timestamp) {
	if len(w.hashes)%sparseEvery == 0 {
		w.index = AppendBytes(w.index, key)
		w.index = binary.AppendUvarint(w.index, uint64(w.off))
	}
	w.hashes = append(w.hashes, keyHash(key))
	w.maxTS = max(w.maxTS, last)
	w.write(enc)
}

// add appends a chain (oldest-first versions).
func (w *segmentWriter) add(c Chain) {
	w.buf = AppendChain(w.buf[:0], c)
	var last truetime.Timestamp
	if n := len(c.Versions); n > 0 {
		last = c.Versions[n-1].TS
	}
	w.addEncoded(c.Key, w.buf, last)
}

// finish writes the index, the filter and the footer behind the chains.
func (w *segmentWriter) finish() (segmentMeta, error) {
	indexOff := w.off
	w.write(w.index)
	filterOff := w.off
	filter := make([]byte, (len(w.hashes)*filterBitsPerKey+7)/8)
	if m := uint32(len(filter) * 8); m > 0 {
		for _, h := range w.hashes {
			at, step := filterBits(h)
			for i := 0; i < filterProbes; i++ {
				bit := at % m
				filter[bit/8] |= 1 << (bit % 8)
				at += step
			}
		}
	}
	w.write(filter)
	var footer [segFooterSize]byte
	binary.LittleEndian.PutUint64(footer[0:8], uint64(indexOff))
	binary.LittleEndian.PutUint64(footer[8:16], uint64(filterOff))
	binary.LittleEndian.PutUint64(footer[16:24], uint64(len(w.hashes)))
	binary.LittleEndian.PutUint32(footer[24:28], w.crc)
	copy(footer[28:36], segEndMagic)
	w.write(footer[:])
	if w.err == nil {
		w.err = w.bw.Flush()
	}
	return segmentMeta{Bytes: w.off, Chains: len(w.hashes), MaxTS: w.maxTS}, w.err
}

// writeSegment writes the chains fill adds to dir/name atomically —
// temp file, fsync, rename, directory fsync — and returns the file's
// metadata. A segment of no chains is not written: its meta has no Name.
func writeSegment(dir, name string, fill func(*segmentWriter) error) (segmentMeta, error) {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return segmentMeta{}, err
	}
	w := segmentWriters.Get().(*segmentWriter)
	*w = segmentWriter{bw: w.bw, index: w.index[:0], hashes: w.hashes[:0], buf: w.buf}
	w.bw.Reset(f)
	defer segmentWriters.Put(w)
	w.write([]byte(segMagic))
	var meta segmentMeta
	if err = fill(w); err == nil {
		meta, err = w.finish()
	}
	if err == nil && meta.Chains > 0 {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil || meta.Chains == 0 {
		os.Remove(tmp)
		return segmentMeta{}, err
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		os.Remove(tmp)
		return segmentMeta{}, err
	}
	if err := syncDir(dir); err != nil {
		return segmentMeta{}, err
	}
	meta.Name = name
	return meta, nil
}

// indexEntry is one in-memory sparse-index entry.
type indexEntry struct {
	key []byte
	off int64
}

// segment is an open immutable sorted file of chains, reference-counted
// so readers that pread it lock-free never race a compaction's close
// and unlink: the engine holds one reference, each in-flight reader
// pins another, and the file is closed (and, once obsoleted by a
// compaction, unlinked) only when the last reference drains.
type segment struct {
	f        *os.File
	path     string
	meta     segmentMeta
	index    []indexEntry
	indexOff int64
	filter   []byte
	tail     []byte // the index and the filter as read
	crc      uint32 // the footer's

	refs     atomic.Int32
	obsolete atomic.Bool
}

// openSegment opens and validates the segment file named by meta. The
// returned segment carries the caller's (the engine's) reference.
func openSegment(dir string, meta segmentMeta) (*segment, error) {
	path := filepath.Join(dir, meta.Name)
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	s, err := loadSegment(f, meta)
	if err != nil {
		f.Close()
		return nil, err
	}
	s.path = path
	return s, nil
}

// incRef pins the segment against close/unlink while a reader preads it.
func (s *segment) incRef() { s.refs.Add(1) }

// decRef releases one reference; the last release closes the file and
// unlinks it if a compaction marked the segment obsolete. The obsolete
// store and the refs decrement are both atomic, so whichever goroutine
// observes zero sees the marker.
func (s *segment) decRef() {
	if s.refs.Add(-1) == 0 {
		s.f.Close()
		if s.obsolete.Load() {
			os.Remove(s.path)
		}
	}
}

// markObsolete schedules the segment file for deletion once every
// reference drains. Called by compaction after the manifest stops
// referencing the file.
func (s *segment) markObsolete() { s.obsolete.Store(true) }

// loadSegment reads f's footer, sparse index and filter. The file is not
// trusted: every offset and count is checked against the bytes there are
// before anything is sized from it, so a corrupt file costs an error and
// no more memory than its own length.
func loadSegment(f *os.File, meta segmentMeta) (*segment, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	corrupt := func(what string) (*segment, error) {
		return nil, fmt.Errorf("storage: segment %s: %s", meta.Name, what)
	}
	size := fi.Size()
	if size < int64(len(segMagic))+segFooterSize {
		return corrupt("too short")
	}
	var magic [len(segMagic)]byte
	if _, err := f.ReadAt(magic[:], 0); err != nil {
		return nil, err
	}
	if string(magic[:]) != segMagic {
		return corrupt(fmt.Sprintf("magic %q, want %q", magic[:], segMagic))
	}
	var footer [segFooterSize]byte
	if _, err := f.ReadAt(footer[:], size-segFooterSize); err != nil {
		return nil, err
	}
	if string(footer[28:36]) != segEndMagic {
		return corrupt("bad end magic")
	}
	indexOff := binary.LittleEndian.Uint64(footer[0:8])
	filterOff := binary.LittleEndian.Uint64(footer[8:16])
	count := binary.LittleEndian.Uint64(footer[16:24])
	if indexOff < uint64(len(segMagic)) || filterOff < indexOff || filterOff > uint64(size-segFooterSize) {
		return corrupt("bad index or filter offset")
	}
	// A chain is at least a key length, a flags byte and a version count.
	if count > (indexOff-uint64(len(segMagic)))/3 {
		return corrupt("bad chain count")
	}
	// One read holds the index and the filter; both alias it from here on.
	raw := make([]byte, size-segFooterSize-int64(indexOff))
	if _, err := f.ReadAt(raw, int64(indexOff)); err != nil {
		return nil, err
	}
	r := NewDecoder(raw[:filterOff-indexOff], false)
	index := make([]indexEntry, 0, (count+sparseEvery-1)/sparseEvery)
	for r.off < len(r.buf) && r.err == nil {
		ent := indexEntry{key: r.Bytes(), off: int64(r.Uvarint())}
		if len(index) == cap(index) || ent.off < int64(len(segMagic)) || ent.off > int64(indexOff) {
			r.err = errTornFrame
			break
		}
		index = append(index, ent)
	}
	if r.err != nil || len(index) != cap(index) {
		return corrupt("index corrupt")
	}
	meta.Chains = int(count)
	s := &segment{f: f, meta: meta, index: index, indexOff: int64(indexOff), filter: raw[filterOff-indexOff:],
		tail: raw, crc: binary.LittleEndian.Uint32(footer[24:28])}
	s.refs.Store(1)
	return s, nil
}

// mayContain reports whether the segment can hold a key hashing to h:
// false is certain, true is wrong for under 1 % of absent keys.
func (s *segment) mayContain(h uint32) bool {
	m := uint32(len(s.filter) * 8)
	if m == 0 {
		return true
	}
	at, step := filterBits(h)
	for i := 0; i < filterProbes; i++ {
		bit := at % m
		if s.filter[bit/8]&(1<<(bit%8)) == 0 {
			return false
		}
		at += step
	}
	return true
}

// getAt returns key's newest version at or before ts, if the segment
// holds one, and whether its chain of key is purged: one pread of key's
// sparse block, allocating only the value it returns.
func (s *segment) getAt(key []byte, ts truetime.Timestamp) (v Version, found, purged bool, err error) {
	cs := s.stream(key, true)
	defer cs.close()
	if k, err := cs.peek(key); err != nil || k == nil || !bytes.Equal(k, key) {
		return Version{}, false, false, err
	}
	cs.readTS = ts
	_, shape, err := cs.body(bodyAt)
	return shape.at, shape.found, shape.purged, err
}

// verifyingStream is stream(nil, false) reading through Read, which folds
// every chain byte into cs.crc: once a merge has read them all, the index
// and the filter (tail) complete the segment's checksum.
func (s *segment) verifyingStream() *chainStream {
	cs := s.stream(nil, false)
	cs.crc = crc32.Checksum([]byte(segMagic), castagnoli)
	cs.br.Reset(cs)
	return cs
}

// Read is a verifyingStream's source: sec, folded into cs.crc.
func (cs *chainStream) Read(p []byte) (int, error) {
	n, err := cs.sec.Read(p)
	cs.crc = crc32.Update(cs.crc, castagnoli, p[:n])
	return n, err
}

// segReadBuf sizes the pooled segment readers: a point read's sparse
// block and a short scan's rows fit in one pread, a long scan pays one
// pread per this many bytes.
const segReadBuf = 16 << 10

// chainStream incrementally decodes the AppendChain-encoded chains of a
// byte range of a segment file, in key order. Streams are pooled: the
// buffered reader and the scratch outlive any one get, scan or merge.
type chainStream struct {
	sec io.SectionReader
	br  *bufio.Reader
	crc uint32 // of the bytes Read passed on
	// key is scratch for the current chain's key; head is key once a
	// chain is loaded and not yet consumed, eof is set at the range's end.
	key, head []byte
	eof       bool
	// enc is scratch for raw: the current chain, still encoded.
	enc    []byte
	readTS truetime.Timestamp // bodyAt's
}

var chainStreams = sync.Pool{New: func() any {
	return &chainStream{br: bufio.NewReaderSize(nil, segReadBuf), key: make([]byte, 0, 64)}
}}

// stream opens a pooled chain stream from where a forward parse must
// start to find the first chain with key >= lo — the greatest sparse
// entry <= lo, or the first chain — to the end of the chains or, for a
// point read, of lo's sparse block. The caller holds a reference on the
// segment until it closes the stream.
func (s *segment) stream(lo []byte, point bool) *chainStream {
	start, end := int64(len(segMagic)), s.indexOff
	if lo != nil {
		// First sparse entry strictly greater than lo: it ends the block
		// its predecessor starts.
		i := sort.Search(len(s.index), func(i int) bool {
			return bytes.Compare(s.index[i].key, lo) > 0
		})
		if i > 0 {
			start = s.index[i-1].off
		}
		if point && i < len(s.index) {
			end = s.index[i].off
		}
	}
	cs := chainStreams.Get().(*chainStream)
	cs.sec = *io.NewSectionReader(s.f, start, max(end-start, 0))
	cs.br.Reset(&cs.sec)
	cs.head, cs.eof = nil, false
	return cs
}

func (cs *chainStream) close() {
	cs.br.Reset(nil)
	chainStreams.Put(cs)
}

// length reads a uvarint that counts bytes or versions still to come and
// refuses one the rest of the range cannot hold, so nothing is sized
// from a number the file merely claims.
func (cs *chainStream) length() (int, error) {
	n, err := binary.ReadUvarint(cs.br)
	if err != nil {
		return 0, err
	}
	pos, _ := cs.sec.Seek(0, io.SeekCurrent)
	if left := cs.sec.Size() - pos + int64(cs.br.Buffered()); n > uint64(left) {
		return 0, errTornFrame
	}
	return int(n), nil
}

// peek returns the key of the stream's current chain, first advancing —
// when the last one was consumed — to the next chain with key >= min
// (nil = any); chains below min are consumed without allocating. nil at
// the end of the range. The slice is scratch, valid until the chain
// after this one is loaded.
func (cs *chainStream) peek(min []byte) ([]byte, error) {
	for cs.head == nil && !cs.eof {
		n, err := cs.length()
		if err == io.EOF {
			cs.eof = true
			break
		}
		if err != nil {
			return nil, errTornFrame
		}
		cs.key = slices.Grow(cs.key[:0], n)[:n]
		if _, err := io.ReadFull(cs.br, cs.key); err != nil {
			return nil, errTornFrame
		}
		if min != nil && bytes.Compare(cs.key, min) < 0 {
			if _, _, err := cs.body(bodySkip); err != nil {
				return nil, err
			}
			continue
		}
		cs.head = cs.key
	}
	return cs.head, nil
}

// take decodes and consumes the chain peek stopped at.
func (cs *chainStream) take() (Chain, error) {
	c, _, err := cs.body(bodyDecode)
	return c, err
}

// chainShape is what a merge needs to know of a chain it has not decoded.
type chainShape struct {
	purged   bool
	versions int
	// last is the newest version, without its value.
	last Version
	// at is the newest version at or before readTS, if found (bodyAt).
	at    Version
	found bool
}

// raw consumes the chain peek stopped at without decoding it: its
// AppendChain encoding, in scratch that is valid until the stream's next
// raw, and its shape.
func (cs *chainStream) raw() ([]byte, chainShape, error) {
	cs.enc = AppendBytes(cs.enc[:0], cs.key)
	_, shape, err := cs.body(bodyRaw)
	return cs.enc, shape, err
}

// What body does with the bytes it walks.
const (
	bodySkip   = iota // nothing: a chain below the range
	bodyDecode        // a Chain owning its memory
	bodyRaw           // re-encode them behind the key in cs.enc
	bodyAt            // copy out the value of the newest version at or before cs.readTS
)

// body consumes the flags and versions that follow the current chain's
// key, as mode says.
func (cs *chainStream) body(mode int) (c Chain, shape chainShape, err error) {
	cs.head = nil
	flags, err := cs.br.ReadByte()
	if err != nil {
		return c, shape, errTornFrame
	}
	nv, err := cs.length()
	if err != nil {
		return c, shape, errTornFrame
	}
	shape.purged, shape.versions = flags&1 != 0, nv
	switch mode {
	case bodyDecode:
		c = Chain{Key: bytes.Clone(cs.key), Purged: shape.purged, Versions: make([]Version, 0, min(nv, 2*GCHorizon))}
	case bodyRaw:
		cs.enc = binary.AppendUvarint(append(cs.enc, flags), uint64(nv))
	}
	for i := 0; i < nv; i++ {
		ts, err := binary.ReadUvarint(cs.br)
		if err != nil {
			return c, shape, errTornFrame
		}
		vflags, err := cs.br.ReadByte()
		if err != nil {
			return c, shape, errTornFrame
		}
		n, err := cs.length()
		if err != nil {
			return c, shape, errTornFrame
		}
		shape.last = Version{TS: truetime.Timestamp(ts), Deleted: vflags&1 != 0}
		switch mode {
		case bodySkip:
			_, err = cs.br.Discard(n)
		case bodyDecode:
			val := make([]byte, n)
			_, err = io.ReadFull(cs.br, val)
			c.Versions = append(c.Versions, Version{TS: shape.last.TS, Value: val, Deleted: shape.last.Deleted})
		case bodyRaw:
			cs.enc = binary.AppendUvarint(append(binary.AppendUvarint(cs.enc, ts), vflags), uint64(n))
			cs.enc = slices.Grow(cs.enc, n)
			val := cs.enc[len(cs.enc) : len(cs.enc)+n]
			_, err = io.ReadFull(cs.br, val)
			cs.enc = cs.enc[:len(cs.enc)+n]
		case bodyAt:
			// Skipped unless it is the newest at or before readTS: the next
			// version's timestamp is peeked past the value (a value too long
			// to look past in the buffer is copied, and may be replaced).
			next, _ := cs.br.Peek(n + binary.MaxVarintLen64)
			nextTS, k := binary.Uvarint(next[min(n, len(next)):])
			if shape.last.TS > cs.readTS || i+1 < nv && k > 0 && truetime.Timestamp(nextTS) <= cs.readTS {
				_, err = cs.br.Discard(n)
				break
			}
			shape.at, shape.found = shape.last, true
			shape.at.Value = make([]byte, n)
			_, err = io.ReadFull(cs.br, shape.at.Value)
		}
		if err != nil {
			return c, shape, errTornFrame
		}
	}
	return c, shape, nil
}
