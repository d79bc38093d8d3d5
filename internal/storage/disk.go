package storage

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"firestore/internal/fault"
	"firestore/internal/keyviz"
	"firestore/internal/obs"
	"firestore/internal/status"
	"firestore/internal/truetime"
)

// Default Disk tuning; Options zero values resolve to these.
const (
	// DefaultMemtableCap is the memtable byte size that triggers a flush.
	DefaultMemtableCap = 4 << 20
	// DefaultCompactAt is the tier fan-in: this many neighbouring
	// segments of one size class merge into one of the next.
	DefaultCompactAt = 4
)

// Metric names registered by DiskFactory.
const (
	metricWALAppends    = "storage.wal.appends"
	metricWALBytes      = "storage.wal.appended.bytes"
	metricFsyncs        = "storage.wal.fsyncs"
	metricFlushes       = "storage.flushes"
	metricCompactions   = "storage.compactions"
	metricMergeRead     = "storage.compaction.read.bytes"
	metricMergeWritten  = "storage.compaction.written.bytes"
	metricMergeDebt     = "storage.compaction.debt.bytes"
	metricFilterSkips   = "storage.segment.filter.skips"
	metricRecoveries    = "storage.recoveries"
	metricMemtableBytes = "storage.memtable.bytes"
	metricSegments      = "storage.segments"
	metricSegmentBytes  = "storage.segment.bytes"
)

// Options tunes Disk engines created by a DiskFactory.
type Options struct {
	// MemtableCap is the memtable byte size that triggers a flush
	// (DefaultMemtableCap if zero).
	MemtableCap int64
	// CompactAt is the size-tiered compaction's fan-in: neighbouring
	// segments of one size class merge once there are this many
	// (DefaultCompactAt if zero; negative disables; at least 2).
	CompactAt int
	// Obs is where the factory declares its counters and gauges.
	Obs *obs.Registry
	// KeyViz, when set, records flush and compaction events on the
	// keyspace heatmap timeline, keyed by tablet ID.
	KeyViz *keyviz.Collector
}

// factoryMetrics are the obs instruments a factory declares and its
// engines share.
type factoryMetrics struct {
	walAppends  *obs.Counter
	walBytes    *obs.Counter
	fsyncs      *obs.Counter
	flushes     *obs.Counter
	compactions *obs.Counter
	recoveries  *obs.Counter
	// mergeRead and mergeWritten count the segment bytes compaction
	// consumed and produced; filterSkips the segments a point read did
	// not touch because their filter ruled its key out.
	mergeRead    *obs.Counter
	mergeWritten *obs.Counter
	filterSkips  *obs.Counter
}

// DiskFactory creates and recovers durable engines under one root
// directory, one subdirectory (t-<id>) per tablet.
type DiskFactory struct {
	dir  string
	opts Options
	met  factoryMetrics

	mu   sync.Mutex
	open map[uint64]*Disk
}

// NewDiskFactory opens (creating if needed) a durable-engine root
// directory.
func NewDiskFactory(dir string, opts Options) (*DiskFactory, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if opts.MemtableCap == 0 {
		opts.MemtableCap = DefaultMemtableCap
	}
	if opts.CompactAt == 0 {
		opts.CompactAt = DefaultCompactAt
	}
	reg := obs.OrNew(opts.Obs)
	f := &DiskFactory{dir: dir, opts: opts, open: map[uint64]*Disk{}, met: factoryMetrics{
		walAppends:  reg.Counter(metricWALAppends, nil),
		walBytes:    reg.Counter(metricWALBytes, nil),
		fsyncs:      reg.Counter(metricFsyncs, nil),
		flushes:     reg.Counter(metricFlushes, nil),
		compactions: reg.Counter(metricCompactions, nil),
		recoveries:  reg.Counter(metricRecoveries, nil),

		mergeRead:    reg.Counter(metricMergeRead, nil),
		mergeWritten: reg.Counter(metricMergeWritten, nil),
		filterSkips:  reg.Counter(metricFilterSkips, nil),
	}}
	reg.GaugeFunc(metricMemtableBytes, nil, func() float64 {
		return f.sumEngines(func(e *Disk) int64 { return e.Stats().MemtableBytes })
	})
	reg.GaugeFunc(metricSegments, nil, func() float64 {
		return f.sumEngines(func(e *Disk) int64 { return int64(e.Stats().Segments) })
	})
	reg.GaugeFunc(metricSegmentBytes, nil, func() float64 {
		return f.sumEngines(func(e *Disk) int64 { return e.Stats().SegmentBytes })
	})
	reg.GaugeFunc(metricMergeDebt, nil, func() float64 { return f.sumEngines((*Disk).compactionDebt) })
	return f, nil
}

func (f *DiskFactory) sumEngines(of func(*Disk) int64) float64 {
	f.mu.Lock()
	engines := make([]*Disk, 0, len(f.open))
	for _, e := range f.open {
		engines = append(engines, e)
	}
	f.mu.Unlock()
	var sum int64
	for _, e := range engines {
		sum += of(e)
	}
	return float64(sum)
}

func tabletDirName(id uint64) string { return fmt.Sprintf("t-%016x", id) }

// Open opens tablet id's engine, recovering persisted state when a
// commissioned manifest exists and creating a pending fresh engine
// otherwise.
func (f *DiskFactory) Open(id uint64, start, end []byte) (Engine, error) {
	e, err := openDisk(f, filepath.Join(f.dir, tabletDirName(id)), id, start, end)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.open[id] = e
	f.mu.Unlock()
	return e, nil
}

// List enumerates commissioned tablets, removing half-created (pending)
// directories abandoned by a crash mid-split.
func (f *DiskFactory) List() ([]TabletMeta, error) {
	entries, err := os.ReadDir(f.dir)
	if err != nil {
		return nil, err
	}
	var metas []TabletMeta
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		var id uint64
		if _, err := fmt.Sscanf(ent.Name(), "t-%016x", &id); err != nil || tabletDirName(id) != ent.Name() {
			continue
		}
		dir := filepath.Join(f.dir, ent.Name())
		man, ok, err := readManifest(dir)
		if err != nil {
			return nil, err
		}
		if !ok || man.Pending {
			// Never commissioned: the split that created it did not
			// complete, and its keys still live in the source tablet.
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			continue
		}
		metas = append(metas, TabletMeta{ID: man.TabletID, Start: man.Start, End: man.End})
	}
	// By start key, nil (unbounded) first: recovery resolves overlapping
	// bounds by this order.
	slices.SortFunc(metas, func(a, b TabletMeta) int { return bytes.Compare(a.Start, b.Start) })
	return metas, nil
}

// Destroy removes tablet id's persistent state.
func (f *DiskFactory) Destroy(id uint64) error {
	f.mu.Lock()
	delete(f.open, id)
	f.mu.Unlock()
	return os.RemoveAll(filepath.Join(f.dir, tabletDirName(id)))
}

func (f *DiskFactory) forget(id uint64, e *Disk) {
	f.mu.Lock()
	if f.open[id] == e {
		delete(f.open, id)
	}
	f.mu.Unlock()
}

// Disk is the durable engine: WAL + memtable + immutable segments.
//
// Lock order: mu before walMu; syncMu is a leaf. The WAL index space is
// monotone across rotations; outstanding counts records appended but
// not yet inserted into the memtable, and flush only rotates when it is
// zero, so every memtable snapshot is exactly the set of records in WAL
// generations below the rotation point.
type Disk struct {
	fac  *DiskFactory
	dir  string
	id   uint64
	opts Options

	// dead flips once on the first crash (injected or real I/O error);
	// every later operation fails fast with ErrCrashed until the owner
	// recovers a fresh engine from disk.
	dead atomic.Bool

	mu   sync.RWMutex
	tab  memtable
	segs []*segment // oldest first
	// gen counts changes of the layer set (a flush resets the memtable
	// into a new segment, a compaction swaps a run of segments for one):
	// a scan that pinned segs under one gen must not read tab under another.
	gen uint64
	// merging is the one compaction in flight, nil when there is none. It
	// is planned and installed under mu and runs outside it.
	merging     *compaction
	man         manifestData
	lastDurable truetime.Timestamp

	walMu       sync.Mutex
	walF        *os.File
	walSeq      int
	walSize     int64 // end of the last record
	walReserved int64 // end of the file: zeros from walSize on (wal.go)
	walIdx      int64
	outstanding atomic.Int64

	syncMu      sync.Mutex
	syncCond    *sync.Cond
	syncedIdx   int64
	appendedIdx atomic.Int64
	syncing     bool
	syncErr     error

	walRecords  atomic.Int64
	walBytes    atomic.Int64
	fsyncs      atomic.Int64
	flushes     atomic.Int64
	compactions atomic.Int64
	recoveries  atomic.Int64
}

// openDisk opens or creates one tablet directory.
func openDisk(fac *DiskFactory, dir string, id uint64, start, end []byte) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	e := &Disk{fac: fac, dir: dir, id: id, opts: fac.opts, tab: newMemtable()}
	e.syncCond = sync.NewCond(&e.syncMu)

	man, ok, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	if ok && man.Pending {
		// A pending directory reopened under the same id: the previous
		// creation never commissioned; start over.
		if err := removeDirContents(dir); err != nil {
			return nil, err
		}
		ok = false
	}
	if !ok {
		e.man = manifestData{TabletID: id, Pending: true, Start: ownBound(start), End: ownBound(end), WALSeq: 1, NextSeg: 1}
		if err := writeManifest(dir, e.man); err != nil {
			return nil, err
		}
		f, err := createWAL(dir, 1)
		if err != nil {
			return nil, err
		}
		e.walF, e.walSeq = f, 1
		return e, nil
	}
	if err := e.recover(man); err != nil {
		e.closeFiles()
		return nil, err
	}
	return e, nil
}

// removeDirContents empties dir without removing the directory itself.
func removeDirContents(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if err := os.RemoveAll(filepath.Join(dir, ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

// recover rebuilds serving state from a commissioned manifest: open the
// segment set, replay WAL generations at or above the manifest boundary
// into the memtable, and truncate any torn tail (prefix-consistent
// recovery to the last durable commit).
func (e *Disk) recover(man manifestData) error {
	e.man = man
	e.lastDurable = man.FlushedTS
	if err := removeStrays(e.dir, man); err != nil {
		return err
	}
	for _, meta := range man.Segments {
		seg, err := openSegment(e.dir, meta)
		if err != nil {
			return err
		}
		e.segs = append(e.segs, seg)
		if meta.MaxTS > e.lastDurable {
			e.lastDurable = meta.MaxTS
		}
	}
	// Stale generations below the manifest boundary are fully covered by
	// segments (flush deletes them; a crash between manifest swap and
	// deletion leaves them behind).
	if err := removeWALsBelow(e.dir, man.WALSeq); err != nil {
		return err
	}
	seqs, err := listWALs(e.dir)
	if err != nil {
		return err
	}
	apply := func(rec walRecord) error {
		switch rec.kind {
		case recCommit:
			for _, w := range rec.writes {
				e.tab.add(w.Key, Version{TS: rec.ts, Value: w.Value, Deleted: w.Delete}, 0)
			}
			if rec.ts > e.lastDurable {
				e.lastDurable = rec.ts
			}
		case recIngest:
			e.applyIngest(rec.chains)
		case recPurge:
			for _, k := range rec.keys {
				e.tab.purge(k)
			}
		}
		return nil
	}
	lastSeq, size := man.WALSeq, int64(0)
	for i, seq := range seqs {
		path := filepath.Join(e.dir, walFileName(seq))
		goodOff, torn, err := replayWAL(path, apply)
		if err != nil {
			return err
		}
		lastSeq, size = seq, goodOff
		// What follows the last intact record goes: reserved zeros, or a
		// torn tail. Only the newest generation can legally tear (older
		// ones were complete before rotation).
		if err := os.Truncate(path, goodOff); err != nil {
			return err
		}
		if torn && i != len(seqs)-1 {
			return fmt.Errorf("storage: torn WAL %s is not the newest generation", path)
		}
	}
	// Continue appending to the newest generation, where its records end.
	f, err := os.OpenFile(filepath.Join(e.dir, walFileName(lastSeq)), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	e.walF, e.walSeq, e.walSize, e.walReserved = f, lastSeq, size, size
	e.recoveries.Add(1)
	e.fac.met.recoveries.Inc()
	return nil
}

// removeStrays deletes the files of a tablet directory that the manifest
// does not account for: temp files a crash tore, and segment files whose
// manifest swap never happened (a flush or a merge renamed its output and
// died, or the swap's write failed). Nothing else ever would.
func removeStrays(dir string, man manifestData) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		name := ent.Name()
		live := slices.ContainsFunc(man.Segments, func(m segmentMeta) bool { return m.Name == name })
		if strings.HasSuffix(name, ".tmp") || strings.HasPrefix(name, "seg-") && !live {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}

// markDead flips the engine to the crashed state and wakes sync waiters.
func (e *Disk) markDead() {
	e.dead.Store(true)
	e.syncMu.Lock()
	if e.syncErr == nil {
		e.syncErr = ErrCrashed
	}
	e.syncCond.Broadcast()
	e.syncMu.Unlock()
}

// append frames payload into the current WAL generation and returns the
// file (pinned against rotation by the outstanding count) and the
// record's sync index.
func (e *Disk) append(payload []byte) (*os.File, int64, error) {
	if len(payload) > maxFrameSize {
		// Replay would take the frame for a torn tail and truncate it away
		// with every record after it. Nothing was written: keep serving.
		return nil, 0, status.Errorf(status.InvalidArgument, "storage",
			"WAL record of %d bytes exceeds the %d-byte frame limit", len(payload), maxFrameSize)
	}
	framed := appendFrame(nil, payload)
	e.walMu.Lock()
	defer e.walMu.Unlock()
	if e.dead.Load() {
		return nil, 0, ErrCrashed
	}
	end := e.walSize + int64(len(framed))
	if chunk := min(walChunk, e.opts.MemtableCap); end > e.walReserved && int64(len(framed)) <= chunk {
		// Best effort: without the chunk the record below extends the file.
		if _, err := e.walF.WriteAt(walZeros[:chunk], e.walReserved); err == nil {
			e.walReserved += chunk
		}
	}
	if _, err := e.walF.WriteAt(framed, e.walSize); err != nil {
		e.markDead()
		return nil, 0, ErrCrashed
	}
	e.walSize, e.walReserved = end, max(e.walReserved, end)
	e.walIdx++
	e.appendedIdx.Store(e.walIdx)
	e.outstanding.Add(1)
	e.walRecords.Add(1)
	e.walBytes.Add(int64(len(framed)))
	e.fac.met.walAppends.Inc()
	e.fac.met.walBytes.Add(int64(len(framed)))
	return e.walF, e.walIdx, nil
}

// tear simulates a torn write: half a frame reaches the file, then the
// engine dies. Recovery truncates the partial frame away.
func (e *Disk) tear(payload []byte) {
	framed := appendFrame(nil, payload)
	e.walMu.Lock()
	if !e.dead.Load() {
		e.walF.WriteAt(framed[:len(framed)/2], e.walSize)
		e.markDead()
	}
	e.walMu.Unlock()
}

// syncTo blocks until a group fsync covers record idx of file f. One
// waiter at a time leads an fsync covering everything appended so far;
// the rest piggyback (group commit).
func (e *Disk) syncTo(ctx context.Context, f *os.File, idx int64) error {
	e.syncMu.Lock()
	for e.syncedIdx < idx {
		if e.syncErr != nil {
			e.syncMu.Unlock()
			return ErrCrashed
		}
		if !e.syncing {
			e.syncing = true
			target := e.appendedIdx.Load()
			e.syncMu.Unlock()

			var serr error
			if d := fault.Decide(ctx, fault.WALFsync); d.Kind == fault.KindError {
				serr = d.Err
			} else {
				serr = datasync(f)
			}
			e.fsyncs.Add(1)
			e.fac.met.fsyncs.Inc()

			e.syncMu.Lock()
			e.syncing = false
			if serr != nil {
				// The appended bytes may or may not be on disk: the
				// commit outcome is unknown. Report a crash; recovery
				// replays whatever survived.
				if e.syncErr == nil {
					e.syncErr = serr
				}
				e.syncCond.Broadcast()
				e.syncMu.Unlock()
				e.dead.Store(true)
				return ErrCrashed
			}
			if target > e.syncedIdx {
				e.syncedIdx = target
			}
			e.syncCond.Broadcast()
			continue
		}
		e.syncCond.Wait()
	}
	e.syncMu.Unlock()
	return nil
}

func (e *Disk) Apply(ctx context.Context, writes []Write, ts truetime.Timestamp) error {
	if e.dead.Load() {
		return ErrCrashed
	}
	switch d := fault.Decide(ctx, fault.WALAppend); d.Kind {
	case fault.KindError:
		// Clean append failure: nothing reached the log, the commit
		// aborts with the injected status.
		return d.Err
	case fault.KindCrash:
		e.tear(encodeCommit(writes, ts))
		return ErrCrashed
	}
	f, idx, err := e.append(encodeCommit(writes, ts))
	if err != nil {
		return err
	}
	if err := e.syncTo(ctx, f, idx); err != nil {
		e.outstanding.Add(-1)
		return err
	}
	e.mu.Lock()
	for _, w := range writes {
		e.tab.add(w.Key, Version{TS: ts, Value: w.Value, Deleted: w.Delete}, 0)
	}
	if ts > e.lastDurable {
		e.lastDurable = ts
	}
	e.outstanding.Add(-1)
	flushed := e.maybeFlushLocked(ctx)
	e.mu.Unlock()
	if flushed {
		e.compact()
	}
	return nil
}

// pinSegments snapshots the live segment set with a reference held on
// each, so a compaction that swaps e.segs concurrently cannot close or
// unlink the files under an in-flight pread. Caller must
// releaseSegments when done. Caller holds e.mu (read or write).
func (e *Disk) pinSegmentsLocked() []*segment {
	segs := append([]*segment(nil), e.segs...)
	for _, s := range segs {
		s.incRef()
	}
	return segs
}

func releaseSegments(segs []*segment) {
	for _, s := range segs {
		s.decRef()
	}
}

// newestAtOrBefore returns the newest version with TS <= ts.
func newestAtOrBefore(versions []Version, ts truetime.Timestamp) (Version, bool) {
	for i := len(versions) - 1; i >= 0; i-- {
		if versions[i].TS <= ts {
			return versions[i], true
		}
	}
	return Version{}, false
}

func (e *Disk) Get(key []byte, ts truetime.Timestamp) ([]byte, truetime.Timestamp, bool) {
	e.mu.RLock()
	if cv, ok := e.tab.rows.Get(key); ok {
		c := cv.(*memChain)
		if v, found := newestAtOrBefore(c.versions, ts); found {
			e.mu.RUnlock()
			if v.Deleted {
				return nil, 0, false
			}
			return v.Value, v.TS, true
		}
		if c.purged {
			e.mu.RUnlock()
			return nil, 0, false
		}
	}
	segs := e.pinSegmentsLocked()
	e.mu.RUnlock()
	v, found, skips, err := newestInSegments(segs, key, ts)
	releaseSegments(segs)
	e.fac.met.filterSkips.Add(skips)
	if err != nil {
		// The pin rules out a racing compaction close, so this is real
		// I/O trouble. A plain not-found here would silently drop
		// committed data; fail the engine instead so the tablet layer
		// observes Crashed(), recovers, and retries.
		e.markDead()
		return nil, 0, false
	}
	if !found || v.Deleted {
		return nil, 0, false
	}
	return v.Value, v.TS, true
}

// newestInSegments returns key's newest version at or before ts in segs
// (oldest first), if there is one, and how many segments their filters
// spared it: a segment costs a pread only if it holds the key, or one
// time in a hundred if it does not.
func newestInSegments(segs []*segment, key []byte, ts truetime.Timestamp) (v Version, found bool, skips int64, err error) {
	h := keyHash(key)
	for i := len(segs) - 1; i >= 0; i-- {
		if !segs[i].mayContain(h) {
			skips++
			continue
		}
		c, ok, err := segs[i].get(key)
		if err != nil {
			return Version{}, false, skips, err
		}
		if !ok {
			continue
		}
		if v, found := newestAtOrBefore(c.Versions, ts); found || c.Purged {
			return v, found, skips, nil
		}
	}
	return Version{}, false, skips, nil
}

// mergeLayers is the one k-way merge over an engine's layers: the chain
// streams of its segments, oldest first, and, newest, a slice of
// memtable chains. It calls fn once per key of [lo, hi) that any layer
// holds, ascending, with the streams stopped at that key, oldest layer
// first (the slice is reused between calls) — fn consumes the chain of
// each, decoded (take) or not (raw) — and the memtable's chain for the
// key, if it has one. It returns false if fn stopped it. Streams keep
// their position, so a later call continues where this one's hi left them.
func mergeLayers(streams []*chainStream, mem []Chain, lo, hi []byte, fn func(holders []*chainStream, mem *Chain) (bool, error)) (bool, error) {
	var holders []*chainStream
	for {
		var key []byte
		if len(mem) > 0 {
			key = mem[0].Key
		}
		for _, cs := range streams {
			k, err := cs.peek(lo)
			if err != nil {
				return false, err
			}
			if k != nil && (key == nil || bytes.Compare(k, key) < 0) {
				key = k
			}
		}
		if key == nil || hi != nil && bytes.Compare(key, hi) >= 0 {
			return true, nil
		}
		holders = holders[:0]
		for _, cs := range streams {
			if cs.head != nil && bytes.Equal(cs.head, key) {
				holders = append(holders, cs)
			}
		}
		var inMem *Chain
		if len(mem) > 0 && bytes.Equal(mem[0].Key, key) {
			inMem, mem = &mem[0], mem[1:]
		}
		if more, err := fn(holders, inMem); !more || err != nil {
			return false, err
		}
	}
}

// rowAt projects one key's layers to the row visible at ts: the newest
// layer holding a version at or before ts decides, and a purge marker
// masks every layer below it.
func rowAt(layers []Chain, ts truetime.Timestamp) (Row, bool) {
	for i := len(layers) - 1; i >= 0; i-- {
		if v, found := newestAtOrBefore(layers[i].Versions, ts); found {
			return Row{Key: layers[i].Key, Value: v.Value, TS: v.TS}, !v.Deleted
		}
		if layers[i].Purged {
			break
		}
	}
	return Row{}, false
}

// fullChain projects one key's layers to its whole version chain: a
// purge marker resets the accumulation, otherwise layers concatenate
// (per-key timestamps only ascend across generations, so the result
// stays ordered). The result shares no memory with the memtable.
func fullChain(layers []Chain) Chain {
	c := Chain{Key: layers[0].Key}
	for _, l := range layers {
		if l.Purged {
			c.Versions, c.Purged = nil, true
		}
		c.Versions = append(c.Versions, l.Versions...)
	}
	return c
}

// merge runs mergeLayers over [lo, hi) of the live engine in rounds. A
// round snapshots the next chunk of memtable chains under RLock, then
// merges, lock-free, up to that chunk's last key against the pinned
// segments. A flush or compaction between rounds changes the layer set
// (the memtable is no longer the one the pin was taken with): the
// generation check re-pins and re-seeks from the round's lo, below which
// every key has been merged. The pin lives exactly as long as the call.
// Returns false if fn stopped the merge. An I/O error fails the engine —
// silently missing keys would lose rows in a scan and whole chains in a
// split — and callers observe Crashed().
func (e *Disk) merge(lo, hi []byte, fn func(layers []Chain) bool) bool {
	var (
		segs    []*segment
		streams []*chainStream
		mem     []Chain
		layers  []Chain
		gen     uint64
	)
	release := func() {
		for _, cs := range streams {
			cs.close()
		}
		releaseSegments(segs)
		segs, streams = nil, streams[:0]
	}
	defer release()
	for n := NextScanChunk(0); ; n = NextScanChunk(n) {
		mem = mem[:0]
		e.mu.RLock()
		if segs == nil || gen != e.gen {
			release()
			segs, gen = e.pinSegmentsLocked(), e.gen
			for _, s := range segs {
				streams = append(streams, s.stream(lo, false))
			}
		}
		e.tab.rows.Ascend(lo, hi, func(k []byte, v any) bool {
			c := v.(*memChain)
			mem = append(mem, Chain{Key: k, Versions: c.versions, Purged: c.purged})
			return len(mem) < n
		})
		e.mu.RUnlock()
		end := hi
		if len(mem) == n {
			end = KeyAfter(mem[n-1].Key)
		}
		more, err := mergeLayers(streams, mem, lo, end, func(holders []*chainStream, inMem *Chain) (bool, error) {
			layers = layers[:0]
			for _, cs := range holders {
				c, err := cs.take()
				if err != nil {
					return false, err
				}
				layers = append(layers, c)
			}
			if inMem != nil {
				layers = append(layers, *inMem)
			}
			return fn(layers), nil
		})
		if err != nil {
			e.markDead()
			return true
		}
		if !more || len(mem) < n {
			return more
		}
		lo = end
	}
}

func (e *Disk) Scan(lo, hi []byte, ts truetime.Timestamp, reverse bool, fn func(Row) bool) bool {
	if !reverse {
		return e.merge(lo, hi, func(layers []Chain) bool {
			r, ok := rowAt(layers, ts)
			return !ok || fn(r)
		})
	}
	// Segment files only stream forward, and no serving path scans in
	// reverse: resolve the range, then walk it backwards.
	var rows []Row
	e.merge(lo, hi, func(layers []Chain) bool {
		if r, ok := rowAt(layers, ts); ok {
			rows = append(rows, r)
		}
		return true
	})
	for i := len(rows) - 1; i >= 0; i-- {
		if !fn(rows[i]) {
			return false
		}
	}
	return true
}

func (e *Disk) KeyAt(i int) (key []byte, ok bool) {
	e.AscendChains(nil, nil, func(c Chain) bool {
		if i == 0 {
			key, ok = c.Key, true
		}
		i--
		return !ok
	})
	return key, ok
}

func (e *Disk) AscendChains(lo, hi []byte, fn func(Chain) bool) {
	e.merge(lo, hi, func(layers []Chain) bool {
		// A resolved chain is complete: the purge marker has done its
		// masking and is not reported, nor is a key it emptied.
		c := fullChain(layers)
		return len(c.Versions) == 0 || fn(Chain{Key: c.Key, Versions: c.Versions})
	})
}

// logThenApply is the shared WAL-first path of ingest and purge records.
// Like Apply it flushes a full memtable: a migration holds one in memory.
func (e *Disk) logThenApply(payload []byte, apply func()) error {
	if e.dead.Load() {
		return ErrCrashed
	}
	f, idx, err := e.append(payload)
	if err != nil {
		return err
	}
	if err := e.syncTo(context.Background(), f, idx); err != nil {
		e.outstanding.Add(-1)
		return err
	}
	e.mu.Lock()
	apply()
	e.outstanding.Add(-1)
	flushed := e.maybeFlushLocked(context.Background())
	e.mu.Unlock()
	if flushed {
		e.compact()
	}
	return nil
}

func (e *Disk) IngestChains(chains []Chain) error {
	if len(chains) == 0 {
		return nil
	}
	return e.logThenApply(encodeIngest(chains), func() { e.applyIngest(chains) })
}

// applyIngest installs chains in the memtable and advances lastDurable
// to their newest version. IngestChains (under e.mu, via logThenApply)
// and WAL replay (before the engine is shared) both use it, so a
// recovered engine reports the horizon the live one did.
func (e *Disk) applyIngest(chains []Chain) {
	e.tab.ingest(chains, true)
	for _, c := range chains {
		if n := len(c.Versions); n > 0 && c.Versions[n-1].TS > e.lastDurable {
			e.lastDurable = c.Versions[n-1].TS
		}
	}
}

// purgeRange durably masks every chain the engine holds in [lo, hi), one
// purge record per chunk of keys.
func (e *Disk) purgeRange(lo, hi []byte) error {
	return chainChunks(e, lo, hi, func(chunk []Chain) error {
		keys := make([][]byte, len(chunk))
		for i, c := range chunk {
			keys[i] = c.Key
		}
		return e.logThenApply(encodePurge(keys), func() {
			for _, k := range keys {
				e.tab.purge(k)
			}
		})
	})
}

// ownBound copies a key bound for the manifest; empty means unbounded.
func ownBound(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}

// editManifest durably swaps in the manifest as edit leaves it, unless
// edit reports nothing to change.
func (e *Disk) editManifest(edit func(*manifestData) bool) error {
	if e.dead.Load() {
		return ErrCrashed
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	man := e.man
	if !edit(&man) {
		return nil
	}
	if err := writeManifest(e.dir, man); err != nil {
		e.markDead()
		return ErrCrashed
	}
	e.man = man
	return nil
}

// SetBounds swaps the manifest, then purges what lies outside the new
// bounds. A crash between the two leaves chains nothing can reach: tablets
// serve only within bounds, compaction drops them, a later ingest masks them.
func (e *Disk) SetBounds(start, end []byte) error {
	start, end = ownBound(start), ownBound(end)
	err := e.editManifest(func(m *manifestData) bool {
		m.Start, m.End = start, end
		return true
	})
	if err == nil && start != nil {
		err = e.purgeRange(nil, start)
	}
	if err == nil && end != nil {
		err = e.purgeRange(end, nil)
	}
	return err
}

func (e *Disk) Commission() error {
	return e.editManifest(func(m *manifestData) bool {
		pending := m.Pending
		m.Pending = false
		return pending
	})
}

// maybeFlushLocked flushes the memtable to a segment once it exceeds the
// cap and reports whether it did: the caller then owes a compact, after
// it has released e.mu. Caller holds e.mu.
func (e *Disk) maybeFlushLocked(ctx context.Context) bool {
	if e.tab.bytes < e.opts.MemtableCap || e.tab.rows.Len() == 0 {
		return false
	}
	return e.flushLocked(ctx)
}

// flushLocked rotates the WAL, writes the memtable as an immutable
// segment, swaps the manifest, and drops the covered WAL generations.
// Any failure leaves the memtable intact for a later retry — the
// manifest boundary only moves after the segment is durable. Caller
// holds e.mu.
func (e *Disk) flushLocked(ctx context.Context) bool {
	if e.dead.Load() {
		return false
	}
	if err := fault.Point(ctx, fault.SegmentFlush); err != nil {
		return false
	}
	// Rotate first so the flushed snapshot is exactly the generations
	// below newSeq. Records mid-Apply (appended, not yet in the
	// memtable) would be lost from both snapshot and replay range, so
	// wait for the next commit instead of flushing under them.
	e.walMu.Lock()
	if e.outstanding.Load() != 0 {
		e.walMu.Unlock()
		return false
	}
	newSeq := e.walSeq + 1
	nf, err := createWAL(e.dir, newSeq)
	if err != nil {
		e.walMu.Unlock()
		e.markDead()
		return false
	}
	old := e.walF
	e.walF, e.walSeq, e.walSize, e.walReserved = nf, newSeq, 0, 0
	old.Close()
	e.walMu.Unlock()

	meta, err := writeSegment(e.dir, segmentName(e.man.NextSeg), func(w *segmentWriter) error {
		e.tab.rows.Ascend(nil, nil, func(k []byte, v any) bool {
			c := v.(*memChain)
			w.add(Chain{Key: k, Versions: c.versions, Purged: c.purged})
			return w.err == nil
		})
		return w.err
	})
	if err != nil {
		// The memtable and the old WAL generations are untouched and the
		// manifest still points below them, so nothing is lost and the
		// flush retries on a later commit.
		return false
	}
	if n := len(e.segs); !e.installLocked(meta, n, n, func(m *manifestData) {
		m.WALSeq = newSeq
		m.NextSeg++
		m.FlushedTS = e.lastDurable
	}) {
		return false
	}
	e.tab.reset()
	e.flushes.Add(1)
	e.fac.met.flushes.Inc()
	// Background-work attribution: the flush lands on this tablet's
	// heatmap row so operators can correlate write stalls with it.
	e.opts.KeyViz.Record(keyviz.EvFlush, keyviz.Event{
		Source: keyviz.SrcTablet.String(),
		Shard:  e.id,
		Detail: fmt.Sprintf("%d chains -> %s (%d bytes)", meta.Chains, meta.Name, meta.Bytes),
	})
	// Covered generations are garbage now; deletion is best-effort
	// (recovery re-deletes anything left behind).
	removeWALsBelow(e.dir, newSeq)
	return true
}

// installLocked is how a written segment file goes live, for a flush and
// a merge alike: it takes the place of e.segs[lo:hi] — of nothing for a
// flush, of its inputs for a merge, and a merge that kept no chain has no
// file to put there — by manifest swap (with edit's other changes), then
// open, then splice. The replaced segments are unlinked once the readers
// that pinned them drain; they still see a complete, consistent view,
// and e.gen sends scans to re-pin. Caller holds e.mu.
func (e *Disk) installLocked(meta segmentMeta, lo, hi int, edit func(*manifestData)) bool {
	var metas []segmentMeta
	if meta.Chains > 0 {
		metas = []segmentMeta{meta}
	}
	man := e.man
	man.Segments = slices.Replace(slices.Clone(man.Segments), lo, hi, metas...)
	if edit != nil {
		edit(&man)
	}
	if err := writeManifest(e.dir, man); err != nil {
		e.markDead()
		return false
	}
	var segs []*segment
	for _, m := range metas {
		seg, err := openSegment(e.dir, m)
		if err != nil {
			e.markDead()
			return false
		}
		segs = append(segs, seg)
	}
	olds := slices.Clone(e.segs[lo:hi])
	e.man = man
	e.segs = slices.Replace(e.segs, lo, hi, segs...)
	e.gen++
	for _, s := range olds {
		s.markObsolete()
		s.decRef()
	}
	return true
}

// compaction is one merge in flight: an age-contiguous run of segments,
// pinned, being folded into one.
type compaction struct {
	inputs []*segment
	name   string // the output file, its number reserved when planned
	// bottom marks a run that starts at the oldest segment. Nothing lies
	// beneath its output, so it alone may drop state: purge markers and
	// what they mask, chains outside the bounds (start, end: as they were
	// when the merge was planned), versions and tombstones past retention.
	bottom     bool
	start, end []byte
	done       chan struct{} // closed when the merge has been installed or abandoned
}

// tier is the size class of a segment of n bytes. Class t is centred on
// MemtableCap * fan^t — a flushed memtable is class 0, fan of those
// merged are class 1 — and reaches a factor sqrt(fan) to either side, so
// neither a flush that ran a little over nor a merge that found keys to
// fold falls out of the class its neighbours are in.
func (e *Disk) tier(n int64) int {
	t := math.Log(float64(n)/float64(e.opts.MemtableCap))/math.Log(float64(e.fan())) + 0.5
	return int(max(t, 0))
}

// fan is the tier fan-in: CompactAt, and two at least.
func (e *Disk) fan() int { return max(e.opts.CompactAt, 2) }

// pickRun is the tiering rule: of segments in age order with size classes
// tiers, it returns the run [lo, hi) to merge next, or lo == hi. A run
// is fan or more neighbours of one class; smaller segments caught between
// them do not break it and are swept along (a memtable that flushed
// early must not keep its neighbours apart for good), larger ones do.
// The lowest class that has a run goes first. The bottom is leveled: a
// run of class t, whose output lands in t+1, takes with it everything
// older when none of that is above t+1. The oldest segment is thereby
// rewritten once per its own size or so of newer data rather than once
// per fan times it, which buys what only a merge that includes it can
// do (compaction.bottom) at that rate: dead chains cost a bounded
// fraction of the tablet, not a multiple.
func pickRun(tiers []int, fan int) (lo, hi int) {
	for t, top := 0, slices.Max(tiers); t <= top; t++ {
		n := 0
		for i := 0; i <= len(tiers); i++ {
			switch {
			case i < len(tiers) && tiers[i] == t:
				if n == 0 {
					lo = i
				}
				n, hi = n+1, i+1
			case i == len(tiers) || tiers[i] > t:
				if n >= fan {
					if lo > 0 && slices.Max(tiers[:lo]) <= t+1 {
						lo = 0
					}
					return lo, hi
				}
				n = 0
			}
		}
	}
	return 0, 0
}

// nextRunLocked applies pickRun to the live segments. Caller holds e.mu.
func (e *Disk) nextRunLocked() (lo, hi int) {
	if e.opts.CompactAt <= 0 || len(e.segs) < e.fan() {
		return 0, 0
	}
	tiers := make([]int, len(e.segs))
	for i, s := range e.segs {
		tiers[i] = e.tier(s.meta.Bytes)
	}
	return pickRun(tiers, e.fan())
}

// compactionDebt is the size of the run compaction would merge next: 0
// while every tier is below its fan-in.
func (e *Disk) compactionDebt() (n int64) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	lo, hi := e.nextRunLocked()
	for _, s := range e.segs[lo:hi] {
		n += s.meta.Bytes
	}
	return n
}

// compact runs the merges the tiering rule asks for, one after another,
// on the calling writer — the one whose flush may have completed a tier —
// and outside e.mu: readers and other writers carry on, and a flush that
// completes another tier meanwhile leaves it to this loop's next turn.
// One merge is in flight per engine; a writer that finds one returns. No
// timer and no goroutine: flushes and merges are a function of the write
// sequence.
func (e *Disk) compact() {
	for {
		e.mu.Lock()
		var c *compaction
		if lo, hi := e.nextRunLocked(); lo < hi {
			c = e.startMergeLocked(lo, hi)
		}
		e.mu.Unlock()
		if c == nil {
			return
		}
		if meta, err := e.runMerge(c); !e.finishMerge(c, meta, err) {
			return
		}
	}
}

// startMergeLocked pins e.segs[lo:hi] as the inputs of a merge and
// reserves its output's name, so that a flush meanwhile takes the next
// one; nil if the engine is dead or already merging. Caller holds e.mu.
func (e *Disk) startMergeLocked(lo, hi int) *compaction {
	if e.merging != nil || e.dead.Load() {
		return nil
	}
	c := &compaction{
		inputs: slices.Clone(e.segs[lo:hi]),
		name:   segmentName(e.man.NextSeg),
		bottom: lo == 0,
		start:  e.man.Start,
		end:    e.man.End,
		done:   make(chan struct{}),
	}
	for _, s := range c.inputs {
		s.incRef()
	}
	e.man.NextSeg++
	e.merging = c
	return c
}

// runMerge streams c's inputs through mergeLayers into its output file
// and never holds more than one chain: a chain that a single input holds
// and that nothing is to be cut from is copied as the bytes it is, the
// rest are decoded into scratch, folded as fullChain folds layers and
// re-encoded. It takes no lock and touches no engine state; it stops
// early if the engine dies.
func (e *Disk) runMerge(c *compaction) (segmentMeta, error) {
	streams := make([]*chainStream, len(c.inputs))
	var newest truetime.Timestamp
	for i, s := range c.inputs {
		streams[i] = s.stream(nil, false)
		defer streams[i].close()
		newest = max(newest, s.meta.MaxTS)
	}
	// A chain that ends in a tombstone at or before horizon reads as
	// absent at every timestamp retention still covers.
	horizon := newest.Add(-GCRetention)
	var versions []Version // scratch
	return writeSegment(e.dir, c.name, func(w *segmentWriter) error {
		_, err := mergeLayers(streams, nil, nil, nil, func(holders []*chainStream, _ *Chain) (bool, error) {
			if e.dead.Load() {
				return false, ErrCrashed
			}
			key := holders[0].head
			out := Chain{Key: key, Versions: versions[:0]}
			for _, cs := range holders {
				enc, shape, err := cs.raw()
				if err != nil {
					return false, err
				}
				if len(holders) == 1 && !(c.bottom && (shape.purged || shape.versions > GCHorizon)) {
					// Nothing to fold it with and nothing to cut from it.
					if !c.retires(key, shape.versions, shape.last, horizon) {
						w.addEncoded(key, enc, shape.last.TS)
					}
					return true, w.err
				}
				r := NewDecoder(enc, false)
				r.Bytes()
				if r.Bool() {
					out.Versions, out.Purged = out.Versions[:0], true
				}
				for n := r.Count(3); n > 0 && r.err == nil; n-- {
					out.Versions = append(out.Versions, r.version())
				}
				if r.err != nil {
					return false, r.err
				}
			}
			versions = out.Versions
			if c.bottom {
				out.Versions, out.Purged = trimChain(out.Versions, GCHorizon), false
			}
			var last Version
			if n := len(out.Versions); n > 0 {
				last = out.Versions[n-1]
			}
			if !c.retires(key, len(out.Versions), last, horizon) {
				w.add(out)
			}
			return true, w.err
		})
		return err
	})
}

// retires reports whether the merge drops the chain of key, folded and
// trimmed to n versions of which last is the newest. Only a bottom merge
// drops any: one a purge marker emptied, one outside the bounds, one that
// ends in a tombstone at or before horizon.
func (c *compaction) retires(key []byte, n int, last Version, horizon truetime.Timestamp) bool {
	return c.bottom && (n == 0 || !boundsContain(c.start, c.end, key) || last.Deleted && last.TS <= horizon)
}

// finishMerge retakes e.mu and puts c's output in place of exactly its
// inputs, wherever they are in the manifest by now: segments that
// flushed during the merge are newer than every input and stay after
// the output, and nothing else removes a segment while c is in flight. A
// failed merge is abandoned — its inputs stay — and so is one whose
// engine died meanwhile.
func (e *Disk) finishMerge(c *compaction, meta segmentMeta, err error) bool {
	e.mu.Lock()
	if errors.Is(err, errTornFrame) {
		// An input does not parse: real I/O trouble (the pins rule out a
		// racing close). Recovery revalidates the segment set instead of
		// this merge being retried, doomed, after every flush.
		e.markDead()
	}
	if err == nil && e.dead.Load() {
		err = ErrCrashed
		os.Remove(filepath.Join(e.dir, c.name)) // else a stray for the next open
	}
	ok := err == nil
	if ok {
		lo := slices.Index(e.segs, c.inputs[0])
		ok = e.installLocked(meta, lo, lo+len(c.inputs), nil)
	}
	e.merging = nil
	e.mu.Unlock()
	// The inputs' last references: their files go here, outside the lock.
	releaseSegments(c.inputs)
	close(c.done)
	if !ok {
		return false
	}
	var read int64
	for _, s := range c.inputs {
		read += s.meta.Bytes
	}
	e.compactions.Add(1)
	e.fac.met.compactions.Inc()
	e.fac.met.mergeRead.Add(read)
	e.fac.met.mergeWritten.Add(meta.Bytes)
	newest := c.inputs[len(c.inputs)-1].meta
	detail := fmt.Sprintf("tier %d: %s..%s (%d segments, %d bytes) -> %d chains (%d bytes)",
		e.tier(newest.Bytes), c.inputs[0].meta.Name, newest.Name, len(c.inputs), read, meta.Chains, meta.Bytes)
	if c.bottom {
		detail += ", bottom"
	}
	e.opts.KeyViz.Record(keyviz.EvCompaction, keyviz.Event{Source: keyviz.SrcTablet.String(), Shard: e.id, Detail: detail})
	return true
}

func (e *Disk) LastDurable() truetime.Timestamp {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.lastDurable
}

func (e *Disk) Crashed() bool { return e.dead.Load() }

func (e *Disk) Stats() Stats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	s := Stats{
		Kind:          "disk",
		MemtableKeys:  e.tab.rows.Len(),
		MemtableBytes: e.tab.bytes,
		WALRecords:    e.walRecords.Load(),
		Fsyncs:        e.fsyncs.Load(),
		Segments:      len(e.segs),
		Flushes:       e.flushes.Load(),
		Compactions:   e.compactions.Load(),
		Recoveries:    e.recoveries.Load(),
		LastDurable:   e.lastDurable,
		FlushedTS:     e.man.FlushedTS,
	}
	s.Keys = e.tab.rows.Len()
	for _, seg := range e.segs {
		s.Keys += seg.meta.Chains
		s.SegmentBytes += seg.meta.Bytes
	}
	e.walMu.Lock()
	s.WALBytes = e.walSize
	e.walMu.Unlock()
	return s
}

func (e *Disk) closeFiles() {
	e.walMu.Lock()
	if e.walF != nil {
		e.walF.Close()
		e.walF = nil
	}
	e.walMu.Unlock()
	e.mu.Lock()
	for _, s := range e.segs {
		s.decRef() // files stay on disk for recovery; only the fd drops
	}
	e.segs = nil
	e.mu.Unlock()
}

// Close marks the engine dead and releases its files. Safe to call on a
// crashed engine before reopening the tablet directory: the walMu
// hand-off guarantees no stray append lands after Close returns.
func (e *Disk) Close() error {
	e.markDead()
	e.closeFiles()
	// A merge in flight stops at its next chain and leaves no output: the
	// directory is quiet when Close returns, whoever opens it next.
	e.mu.RLock()
	c := e.merging
	e.mu.RUnlock()
	if c != nil {
		<-c.done
	}
	e.fac.forget(e.id, e)
	return nil
}
