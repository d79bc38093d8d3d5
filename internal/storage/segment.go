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
//	magic "FSSEG001" (8 bytes)
//	chains: AppendChain encoding, sorted by key, back to back
//	index: every sparseEvery-th chain: uvarint keyLen, key, uvarint offset
//	footer (28 bytes):
//	    u64 index offset
//	    u64 chain count
//	    u32 CRC32-C of [magic .. end of index]
//	    magic "FSEND001" (8 bytes)
//
// Segments are immutable: written to a temp file, fsynced, renamed into
// place, and only then referenced by a manifest swap. Readers keep the
// sparse index in memory and pread chain groups on demand.

const (
	segMagic      = "FSSEG001"
	segEndMagic   = "FSEND001"
	segFooterSize = 8 + 8 + 4 + 8
	// sparseEvery is the sparse-index stride: one index entry per this
	// many chains bounds a point lookup to parsing at most sparseEvery
	// chains after one pread.
	sparseEvery = 16
)

// writeSegment writes chains (sorted by key, oldest-first versions) to
// path atomically and returns its metadata.
func writeSegment(dir, name string, chains []Chain) (segmentMeta, error) {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return segmentMeta{}, err
	}
	meta, err := writeSegmentTo(f, chains)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
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

func writeSegmentTo(w io.Writer, chains []Chain) (segmentMeta, error) {
	crc := crc32.New(castagnoli)
	out := io.MultiWriter(w, crc)
	off := int64(0)
	write := func(b []byte) error {
		n, err := out.Write(b)
		off += int64(n)
		return err
	}
	if err := write([]byte(segMagic)); err != nil {
		return segmentMeta{}, err
	}
	var index []byte
	var maxTS truetime.Timestamp
	buf := make([]byte, 0, 4096)
	for i, c := range chains {
		if i%sparseEvery == 0 {
			index = AppendBytes(index, c.Key)
			index = binary.AppendUvarint(index, uint64(off))
		}
		buf = AppendChain(buf[:0], c)
		if err := write(buf); err != nil {
			return segmentMeta{}, err
		}
		for _, v := range c.Versions {
			if v.TS > maxTS {
				maxTS = v.TS
			}
		}
	}
	indexOff := off
	if err := write(index); err != nil {
		return segmentMeta{}, err
	}
	var footer [segFooterSize]byte
	binary.LittleEndian.PutUint64(footer[0:8], uint64(indexOff))
	binary.LittleEndian.PutUint64(footer[8:16], uint64(len(chains)))
	binary.LittleEndian.PutUint32(footer[16:20], crc.Sum32())
	copy(footer[20:28], segEndMagic)
	if err := write(footer[:]); err != nil {
		return segmentMeta{}, err
	}
	return segmentMeta{Bytes: off, Chains: len(chains), MaxTS: maxTS}, nil
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

func loadSegment(f *os.File, meta segmentMeta) (*segment, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size < int64(len(segMagic))+segFooterSize {
		return nil, fmt.Errorf("storage: segment %s too short", meta.Name)
	}
	var footer [segFooterSize]byte
	if _, err := f.ReadAt(footer[:], size-segFooterSize); err != nil {
		return nil, err
	}
	if string(footer[20:28]) != segEndMagic {
		return nil, fmt.Errorf("storage: segment %s bad end magic", meta.Name)
	}
	indexOff := int64(binary.LittleEndian.Uint64(footer[0:8]))
	count := int64(binary.LittleEndian.Uint64(footer[8:16]))
	if indexOff < int64(len(segMagic)) || indexOff > size-segFooterSize {
		return nil, fmt.Errorf("storage: segment %s bad index offset", meta.Name)
	}
	var magic [8]byte
	if _, err := f.ReadAt(magic[:], 0); err != nil {
		return nil, err
	}
	if string(magic[:]) != segMagic {
		return nil, fmt.Errorf("storage: segment %s bad magic", meta.Name)
	}
	raw := make([]byte, size-segFooterSize-indexOff)
	if _, err := f.ReadAt(raw, indexOff); err != nil {
		return nil, err
	}
	r := NewDecoder(raw, false)
	var index []indexEntry
	for r.off < len(raw) && r.err == nil {
		key := append([]byte(nil), r.Bytes()...)
		off := int64(r.Uvarint())
		if r.err == nil {
			index = append(index, indexEntry{key: key, off: off})
		}
	}
	if r.err != nil {
		return nil, fmt.Errorf("storage: segment %s index corrupt", meta.Name)
	}
	meta.Chains = int(count)
	s := &segment{f: f, meta: meta, index: index, indexOff: indexOff}
	s.refs.Store(1)
	return s, nil
}

// get returns key's chain, if present: one pread of key's sparse block,
// allocating nothing for the chains around it.
func (s *segment) get(key []byte) (Chain, bool, error) {
	cs := s.stream(key, true)
	defer cs.close()
	if k, err := cs.peek(key); err != nil || k == nil || !bytes.Equal(k, key) {
		return Chain{}, false, err
	}
	c, err := cs.take()
	return c, err == nil, err
}

// segReadBuf sizes the pooled segment readers: a point read's sparse
// block and a short scan's rows fit in one pread, a long scan pays one
// pread per this many bytes.
const segReadBuf = 16 << 10

// chainStream incrementally decodes the AppendChain-encoded chains of a
// byte range of a segment file, in key order. Streams are pooled: the
// buffered reader and the key scratch outlive any one get or scan.
type chainStream struct {
	sec io.SectionReader
	br  *bufio.Reader
	// key is scratch for the current chain's key; head is key once a
	// chain is loaded and not yet taken, eof is set at the range's end.
	key, head []byte
	eof       bool
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
	cs.sec = *io.NewSectionReader(s.f, start, end-start)
	cs.br.Reset(&cs.sec)
	cs.head, cs.eof = nil, false
	return cs
}

func (cs *chainStream) close() {
	cs.br.Reset(nil)
	chainStreams.Put(cs)
}

// peek returns the key of the stream's current chain, first advancing —
// when the last one was taken — to the next chain with key >= min (nil =
// any); chains below min are consumed without allocating. nil at the
// end of the range. The slice is scratch, valid until the chain after
// this one is loaded.
func (cs *chainStream) peek(min []byte) ([]byte, error) {
	for cs.head == nil && !cs.eof {
		n, err := binary.ReadUvarint(cs.br)
		if err == io.EOF {
			cs.eof = true
			break
		}
		if err != nil || n > maxFrameSize {
			return nil, errTornFrame
		}
		cs.key = slices.Grow(cs.key[:0], int(n))[:n]
		if _, err := io.ReadFull(cs.br, cs.key); err != nil {
			return nil, errTornFrame
		}
		if min != nil && bytes.Compare(cs.key, min) < 0 {
			if _, err := cs.body(false); err != nil {
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
	c, err := cs.body(true)
	cs.head = nil
	return c, err
}

// body reads the flags and versions that follow a chain's key, into a
// Chain owning its memory if keep is set and discarding them otherwise.
func (cs *chainStream) body(keep bool) (Chain, error) {
	flags, err := cs.br.ReadByte()
	if err != nil {
		return Chain{}, errTornFrame
	}
	nv, err := binary.ReadUvarint(cs.br)
	if err != nil {
		return Chain{}, errTornFrame
	}
	var c Chain
	if keep {
		c = Chain{Key: bytes.Clone(cs.key), Purged: flags&1 != 0, Versions: make([]Version, 0, min(nv, 2*GCHorizon))}
	}
	for i := uint64(0); i < nv; i++ {
		ts, err := binary.ReadUvarint(cs.br)
		if err != nil {
			return Chain{}, errTornFrame
		}
		vflags, err := cs.br.ReadByte()
		if err != nil {
			return Chain{}, errTornFrame
		}
		n, err := binary.ReadUvarint(cs.br)
		if err != nil || n > maxFrameSize {
			return Chain{}, errTornFrame
		}
		if !keep {
			if _, err := cs.br.Discard(int(n)); err != nil {
				return Chain{}, errTornFrame
			}
			continue
		}
		val := make([]byte, n)
		if _, err := io.ReadFull(cs.br, val); err != nil {
			return Chain{}, errTornFrame
		}
		c.Versions = append(c.Versions, Version{TS: truetime.Timestamp(ts), Value: val, Deleted: vflags&1 != 0})
	}
	return c, nil
}
