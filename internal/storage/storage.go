// Package storage is the tablet storage-engine layer: everything below a
// Spanner tablet's MVCC row semantics and above the filesystem. It owns
// every file descriptor, write syscall, and fsync decision in the
// repository (the fslint iodiscipline analyzer enforces that no other
// serving layer touches the filesystem), exposing a small Engine
// interface the tablet layer programs against.
//
// Two implementations exist:
//
//   - Mem: an in-memory B-tree of version chains (internal/btree, not
//     copy-on-write: Clone is a deep copy), extracted from
//     internal/spanner. The default — fastest, volatile, "crash" means
//     total state loss.
//   - Disk: a durable engine in the log-then-apply shape of Taurus and
//     the classic LSM tree: a per-tablet write-ahead log (length+CRC
//     framed records, group fsync on commit), a memtable over
//     internal/btree, periodic flush to immutable sorted segment files,
//     size-tiered compaction, and a manifest providing atomic segment
//     swaps. Recovery is manifest load + WAL replay to the last durable
//     commit; a torn or truncated WAL tail is truncated away, yielding a
//     prefix-consistent tablet.
//
// Version-retention (GC) policy lives here too: the Mem engine trims
// each chain to the newest GCHorizon versions on write, sparing any
// version superseded less than GCRetention ago (Spanner bounds version
// GC by age similarly). It never drops a chain, even one that ends in a
// tombstone: a deleted row's key stays for the engine's life. The Disk
// engine's memtable consults the flushed horizon — a version newer than
// the last flush exists nowhere but the memtable and WAL, so trimming it
// would serve stale segment data; chains are trimmed to GCHorizon, and
// chains that end in a tombstone past retention dropped, only by a merge
// that includes the oldest segment, where nothing older can show through.
//
// Tablet migration lives here too, once: a split, a merge and a move are
// each CopyChains between an opening and a closing step, and the Engine's
// KeyAt, AscendChains, IngestChains, SetBounds and Commission exist for
// it. DESIGN.md "Tablet migration" states the steps and the crash ordering.
package storage

import (
	"context"
	"sync"
	"time"

	"firestore/internal/status"
	"firestore/internal/truetime"
)

// GCHorizon is how many versions a chain keeps before trimming old ones.
// A query at a timestamp retention may no longer cover is refused
// (spanner.DB.ReadHorizon), as Spanner refuses reads older than its
// version-GC window.
const GCHorizon = 8

// GCRetention keeps a version readable for this long after a newer one
// superseded it, however many writes the key took meanwhile. A count
// alone is no horizon: a hot key can take GCHorizon writes inside one
// scheduler time slice, and a strong read that picked its timestamp
// just before would find the live document gone.
const GCRetention = time.Second

// ErrCrashed reports that the engine crashed mid-operation (injected or
// real): volatile state is no longer trustworthy and the owner must
// recover the tablet from disk before serving again. Detect with
// errors.Is.
var ErrCrashed = status.New(status.Unavailable, "storage", "engine crashed; recover from disk")

// Write, Row, Version, Chain and BatchGet cross the coordinator/
// tablet-server boundary in this package's own binary codec (codec.go),
// the one WAL records and segments use; Stats and TabletMeta as JSON.

// Write is one row mutation in an atomically applied batch.
type Write struct {
	Key    []byte
	Value  []byte
	Delete bool
}

// Row is one visible row produced by a scan.
type Row struct {
	Key   []byte
	Value []byte
	// TS is the version (commit) timestamp of the row value.
	TS truetime.Timestamp
}

// Version is one MVCC version of a row.
type Version struct {
	TS      truetime.Timestamp
	Value   []byte
	Deleted bool
}

// Chain is a row's full version history, oldest first, as moved between
// engines during tablet splits and merges.
type Chain struct {
	Key      []byte
	Versions []Version
	// Purged marks a chain that masks any older (already-flushed) state
	// for its key: the key reads as absent at every timestamp not covered
	// by Versions. Split sources leave purge markers behind for moved
	// keys; a merge down to the oldest segment retires them.
	Purged bool
}

// Stats reports one engine's storage state for /debug/storagez, fsctl,
// and chaos-scenario expectation checks.
type Stats struct {
	// Kind is "mem" or "disk".
	Kind string `json:"kind"`
	// Keys bounds the number of distinct keys from above (exact for Mem;
	// Disk counts a key once per layer — memtable, segment — holding it,
	// so KeyAt(Keys/2) may be out of range and callers fall back).
	Keys int `json:"keys"`
	// MemtableKeys and MemtableBytes size the unflushed state.
	MemtableKeys  int   `json:"memtable_keys"`
	MemtableBytes int64 `json:"memtable_bytes"`
	// WALBytes is the live write-ahead-log size; WALRecords and Fsyncs
	// count appends and group fsyncs over the engine's lifetime.
	WALBytes   int64 `json:"wal_bytes"`
	WALRecords int64 `json:"wal_records"`
	Fsyncs     int64 `json:"fsyncs"`
	// Segments and SegmentBytes describe the immutable sorted files.
	Segments     int   `json:"segments"`
	SegmentBytes int64 `json:"segment_bytes"`
	// Flushes, Compactions, and Recoveries count lifecycle events.
	Flushes     int64 `json:"flushes"`
	Compactions int64 `json:"compactions"`
	Recoveries  int64 `json:"recoveries"`
	// LastDurable is the largest commit timestamp guaranteed recoverable
	// after a crash; FlushedTS is the flushed horizon (every version at
	// or below it is retained in segments).
	LastDurable truetime.Timestamp `json:"last_durable_ts"`
	FlushedTS   truetime.Timestamp `json:"flushed_ts"`
}

// BatchGet is one result of a BatchGetter read, aligned with the
// requested key.
type BatchGet struct {
	Value []byte
	TS    truetime.Timestamp
	OK    bool
}

// BatchGetter is an optional Engine capability: read many keys at one
// timestamp in a single call, returning one result per key in order.
// Engines where each Get crosses a process boundary (the cluster's
// remote engine) implement it so a commit's per-row reads coalesce into
// one round trip; callers fall back to per-key Get when absent.
type BatchGetter interface {
	GetBatch(keys [][]byte, ts truetime.Timestamp) []BatchGet
}

// Engine is what a tablet needs from its row store. Implementations are
// safe for concurrent use; Apply batches are atomic and, for durable
// engines, recoverable once Apply returns.
type Engine interface {
	// Get returns the value of key visible at ts and its version
	// timestamp.
	Get(key []byte, ts truetime.Timestamp) (value []byte, vts truetime.Timestamp, ok bool)

	// Scan iterates rows of [lo, hi) visible at ts (nil bound =
	// unbounded) in ascending (or descending if reverse) key order,
	// calling fn until it returns false or the range is exhausted.
	// Returns false if fn stopped the scan. A forward scan does
	// O(log n + rows delivered) work and holds O(chunk) memory
	// (NextScanChunk): it reads the range chunk by chunk, re-seeking
	// after the last key, and never holds a lock across fn, which may
	// read the same engine; a reverse scan is ScanDescending's, O(range)
	// memory. A delivered row's Key and Value are immutable: callers may
	// keep or slice them without copying.
	Scan(lo, hi []byte, ts truetime.Timestamp, reverse bool, fn func(Row) bool) bool

	// Apply atomically installs a batch of writes at commit timestamp
	// ts. A durable engine returns only after the batch is recoverable
	// (logged and group-fsynced); an ErrCrashed return means the engine
	// must be recovered from disk by the owner.
	Apply(ctx context.Context, writes []Write, ts truetime.Timestamp) error

	// KeyAt returns the i-th smallest key (0-based) — with Stats().Keys,
	// a split's median — or false if i is out of range. The copy cannot
	// yield it: the split key opens the target, so it is needed first, and
	// over the wire it is one small RPC, not half a tablet streamed.
	KeyAt(i int) ([]byte, bool)

	// AscendChains iterates the full version chains of [lo, hi) in key
	// order, chunk by chunk and lock-free across fn like Scan: the giving
	// side of CopyChains. A delivered chain shares no memory with the
	// engine; purge markers are not reported. A crash ends the iteration
	// early: check Crashed() before trusting that the range was exhausted.
	AscendChains(lo, hi []byte, fn func(Chain) bool)

	// IngestChains installs chains inside the engine's bounds, each as its
	// key's whole history, replacing whatever the engine held for the key:
	// the receiving side of CopyChains. Durable engines log one record per
	// call, so callers bound the batch.
	IngestChains(chains []Chain) error

	// SetBounds durably sets the engine's key bounds [start, end) (nil =
	// unbounded) and masks every chain it holds outside them for good: a
	// later widening does not bring them back, and compaction may drop
	// them. A split source narrows with it, a merge absorber widens, and
	// recovery resolves two tablets' overlapping bounds.
	SetBounds(start, end []byte) error

	// Commission marks a newly created engine live: until then recovery
	// removes its directory as an abandoned migration target. No-op for
	// Mem and for engines opened by recovery. (Also what the frozen
	// benchmark calls on the engines it opens, through this interface.)
	Commission() error

	// LastDurable is the largest commit timestamp recoverable after a
	// crash (truetime.Max for Mem: it never "recovers" to less than it
	// serves).
	LastDurable() truetime.Timestamp

	// Crashed reports that the engine hit ErrCrashed (injected or real)
	// and is no longer serving trustworthy state. Readers that observe
	// Crashed after a read must discard the result and retry against the
	// recovered engine.
	Crashed() bool

	// Stats snapshots the engine's storage counters.
	Stats() Stats

	// Close releases files. The engine must not be used afterwards.
	Close() error
}

// TabletMeta describes one recoverable tablet found by Factory.List.
type TabletMeta struct {
	ID    uint64 `json:"id"`
	Start []byte `json:"start"`
	End   []byte `json:"end"`
}

// Factory creates and recovers the engines of one Spanner database's
// tablets.
type Factory interface {
	// Open opens (recovering if state exists) or creates the engine for
	// tablet id with the given key bounds.
	Open(id uint64, start, end []byte) (Engine, error)
	// List enumerates recoverable tablets, sorted by start key. Empty
	// for Mem factories and fresh directories.
	List() ([]TabletMeta, error)
	// Destroy removes tablet id's persistent state (after a merge).
	Destroy(id uint64) error
}

// NextScanChunk returns the size of the chunk that follows one of n rows
// (0 = the first). Every layer that reads a range across a lock or an
// RPC reads it in chunks of these sizes: small first, so a limit-20
// query touches little, then doubling to MaxScanChunk, so a long scan
// amortises its re-seeks while no layer ever holds more than that.
func NextScanChunk(n int) int { return min(max(2*n, 32), MaxScanChunk) }

const MaxScanChunk = 1024

// rowChunks pools the slices scans stage a chunk of rows in: Mem.Scan
// between reading it under the engine lock and delivering it outside,
// a spanner tablet between the engine and its per-chunk ownership check.
// A chunk keeps the capacity it grew to, so a warm scan allocates none;
// PutRows clears it, so the pool pins no key or value.
var rowChunks = sync.Pool{New: func() any { return new([]Row) }}

// GetRows returns an empty chunk from the pool, to be handed back with
// PutRows with its length covering every row written to it.
func GetRows() *[]Row { return rowChunks.Get().(*[]Row) }

func PutRows(c *[]Row) {
	clear(*c)
	*c = (*c)[:0]
	rowChunks.Put(c)
}

// MaxScanBytes bounds a chunk beside its row count: a chunk ends with the
// row or chain that takes it past this many bytes, which keeps every scan,
// chains and ingest frame far below transport.MaxFrame and every ingest or
// purge record far below the WAL's maxFrameSize, however wide the rows.
const MaxScanBytes = 4 << 20

// Bytes is the chain's size as MaxScanBytes counts it.
func (c Chain) Bytes() (n int) {
	for _, v := range c.Versions {
		n += int(versionBytes(c.Key, v))
	}
	return n
}

// chainChunks streams the chains of [lo, hi) out of e to fn one chunk
// (NextScanChunk chains, MaxScanBytes) at a time, reusing fn's slice. It
// fails with fn's first error, or with ErrCrashed if e crashed on the way.
func chainChunks(e Engine, lo, hi []byte, fn func([]Chain) error) error {
	var chunk []Chain
	var err error
	size, limit := 0, NextScanChunk(0)
	flush := func() bool {
		err = fn(chunk)
		chunk, size, limit = chunk[:0], 0, NextScanChunk(limit)
		return err == nil
	}
	e.AscendChains(lo, hi, func(c Chain) bool {
		chunk = append(chunk, c)
		size += c.Bytes()
		return len(chunk) < limit && size < MaxScanBytes || flush()
	})
	if err == nil && e.Crashed() {
		err = ErrCrashed
	}
	if err == nil && len(chunk) > 0 {
		flush()
	}
	return err
}

// CopyChains is the one tablet-migration primitive: it copies the chains
// of [lo, hi) from src into dst, one bounded chunk per IngestChains, and
// returns how many: any range moves through O(chunk) memory, WAL records
// and frames. On an error dst holds a prefix and the caller abandons the
// migration; src is untouched either way.
func CopyChains(dst, src Engine, lo, hi []byte) (n int, err error) {
	err = chainChunks(src, lo, hi, func(chunk []Chain) error {
		n += len(chunk)
		return dst.IngestChains(chunk)
	})
	return n, err
}

// KeyAfter returns the smallest key greater than key: where a forward
// scan that delivered key resumes.
func KeyAfter(key []byte) []byte {
	return append(append(make([]byte, 0, len(key)+1), key...), 0)
}

// ScanDescending is the one descending scan: every Engine.Scan and
// SnapshotScan hand theirs to it first thing. scan reads the range forward
// into keep, which never stops it, and reports whether it read it all;
// then fn gets the rows last to first. It holds the whole range, O(range)
// memory, and returns false if fn stopped it or scan failed.
func ScanDescending(fn func(Row) bool, scan func(keep func(Row) bool) bool) bool {
	var rows []Row
	ok := scan(func(r Row) bool { rows = append(rows, r); return true })
	for i := len(rows) - 1; ok && i >= 0; i-- {
		ok = fn(rows[i])
	}
	return ok
}

// trimmable returns how many of a chain's oldest versions (it is oldest
// first) may be dropped: those beyond the newest max whose successor —
// the version that hides them from later reads — is at least
// GCRetention older than the chain's newest write.
func trimmable(versions []Version, max int) int {
	if len(versions) <= max {
		return 0
	}
	horizon := versions[len(versions)-1].TS.Add(-GCRetention)
	drop := 0
	for drop < len(versions)-max && versions[drop+1].TS <= horizon {
		drop++
	}
	return drop
}

// dropOldest removes a chain's n oldest versions, in place.
func dropOldest(versions []Version, n int) []Version {
	kept := copy(versions, versions[n:])
	clear(versions[kept:])
	return versions[:kept]
}

// trimChain drops a chain's trimmable versions, in place.
func trimChain(versions []Version, max int) []Version {
	return dropOldest(versions, trimmable(versions, max))
}

// versionBytes is the memtable accounting size of one version.
func versionBytes(key []byte, v Version) int64 {
	return int64(len(key) + len(v.Value) + 16)
}
