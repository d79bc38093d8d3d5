package storage

import (
	"bytes"
	"context"
	"slices"
	"sync"

	"firestore/internal/btree"
	"firestore/internal/truetime"
)

// memChain is the in-memory form of a version chain, kept by value in
// the B-tree's items. top is a copy of the newest version, so a read at
// or after it touches only the tree node, not the versions array.
type memChain struct {
	top      Version
	versions []Version // oldest first; versions[len-1] == top
	// purged masks any flushed state for this key (Disk memtable only;
	// the Mem engine deletes chains outright).
	purged bool
}

// at returns the newest version with TS <= ts.
func (c *memChain) at(ts truetime.Timestamp) (Version, bool) {
	if len(c.versions) > 0 && c.top.TS <= ts {
		return c.top, true
	}
	return newestAtOrBefore(c.versions, ts)
}

// visible returns the value the chain shows at ts and its version
// timestamp.
func (c *memChain) visible(ts truetime.Timestamp) ([]byte, truetime.Timestamp, bool) {
	if v, ok := c.at(ts); ok && !v.Deleted {
		return v.Value, v.TS, true
	}
	return nil, 0, false
}

// memtable is a B-tree of version chains with byte accounting. Not
// self-locking: the owning engine serializes access. The zero value is
// empty.
type memtable struct {
	rows  btree.Tree[memChain]
	bytes int64
}

// add appends one version to key's chain, trimming to trimTo newest
// versions (see trimmable) when trimTo > 0.
func (m *memtable) add(key []byte, v Version, trimTo int) {
	m.bytes += versionBytes(key, v)
	c, _ := m.rows.Upsert(key)
	if c.versions == nil {
		// Room for the version that usually follows, an update or a
		// tombstone, so that it does not regrow a new chain's array.
		c.versions = make([]Version, 0, 2)
	}
	c.versions = append(c.versions, v)
	c.top = v
	if trimTo > 0 {
		drop := trimmable(c.versions, trimTo)
		for _, old := range c.versions[:drop] {
			m.bytes -= versionBytes(key, old)
		}
		c.versions = dropOldest(c.versions, drop)
	}
}

// purge installs a purge marker for key — an empty chain masking any
// flushed state: the key reads as absent at every timestamp. Used by the
// Disk memtable; Mem deletes chains directly.
func (m *memtable) purge(key []byte) { m.ingest([]Chain{{Key: key}}, true) }

// ingest installs full chains, replacing any existing chain per key. With
// mask set (Disk) each also masks whatever older layers hold for its key:
// an ingested chain is the key's whole history.
func (m *memtable) ingest(chains []Chain, mask bool) {
	for _, ch := range chains {
		m.drop(ch.Key)
		c := memChain{versions: slices.Clone(ch.Versions), purged: mask}
		for _, v := range c.versions {
			c.top = v
			m.bytes += versionBytes(ch.Key, v)
		}
		m.rows.Set(bytes.Clone(ch.Key), c)
	}
}

// drop removes key's chain, if any.
func (m *memtable) drop(key []byte) {
	if c, ok := m.rows.Delete(key); ok {
		for _, v := range c.versions {
			m.bytes -= versionBytes(key, v)
		}
	}
}

// reset drops all chains.
func (m *memtable) reset() {
	*m = memtable{}
}

// Mem is the original in-memory engine extracted from
// internal/spanner/tablet.go: a B-tree of version chains trimmed to
// GCHorizon on write. It is the default engine; it has no durability, so
// a crash is total state loss.
type Mem struct {
	// mu is shared by reads (Get, Scan, AscendChains, KeyAt, Stats), so
	// concurrent queries do not queue behind one another; writes take it
	// alone.
	mu  sync.RWMutex
	tab memtable
}

// NewMem returns an empty in-memory engine.
func NewMem() *Mem { return new(Mem) }

func (e *Mem) Get(key []byte, ts truetime.Timestamp) ([]byte, truetime.Timestamp, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	c := e.tab.rows.Get(key)
	if c == nil {
		return nil, 0, false
	}
	return c.visible(ts)
}

func (e *Mem) Scan(lo, hi []byte, ts truetime.Timestamp, reverse bool, fn func(Row) bool) bool {
	if reverse {
		return ScanDescending(fn, func(keep func(Row) bool) bool { return e.Scan(lo, hi, ts, false, keep) })
	}
	// Each round visits one chunk of chains under the read lock, resolving
	// the rows visible at ts, and delivers them outside it; the next
	// round re-seeks past the last chain visited (the tree is not
	// copy-on-write, so there is no snapshot to read outside the lock).
	// The pooled chunk is grown to the round's size before the lock is
	// taken, so no round grows it while writers wait.
	chunk := GetRows()
	defer PutRows(chunk)
	var resume []byte // KeyAfter(last), one buffer for all rounds
	for n := NextScanChunk(0); ; n = NextScanChunk(n) {
		clear(*chunk) // the round before may have held more rows
		*chunk = slices.Grow((*chunk)[:0], n)
		var last []byte
		visited := 0
		visit := func(k []byte, c *memChain) bool {
			if val, vts, ok := c.visible(ts); ok {
				*chunk = append(*chunk, Row{Key: k, Value: val, TS: vts})
			}
			last = k
			visited++
			return visited < n
		}
		e.mu.RLock()
		e.tab.rows.Ascend(lo, hi, visit)
		e.mu.RUnlock()
		for _, r := range *chunk {
			if !fn(r) {
				return false
			}
		}
		if visited < n {
			return true
		}
		resume = append(append(resume[:0], last...), 0)
		lo = resume
	}
}

func (e *Mem) Apply(_ context.Context, writes []Write, ts truetime.Timestamp) error {
	e.mu.Lock()
	for _, w := range writes {
		e.tab.add(w.Key, Version{TS: ts, Value: w.Value, Deleted: w.Delete}, GCHorizon)
	}
	e.mu.Unlock()
	return nil
}

func (e *Mem) KeyAt(i int) ([]byte, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.tab.rows.KeyAt(i)
}

func (e *Mem) AscendChains(lo, hi []byte, fn func(Chain) bool) {
	// Chunked like Scan: one chunk of chains copied under the lock,
	// delivered outside it, the next round re-seeking past the last.
	var chains []Chain
	for n := NextScanChunk(0); ; n = NextScanChunk(n) {
		chains = slices.Grow(chains[:0], n)
		e.mu.RLock()
		e.tab.rows.Ascend(lo, hi, func(k []byte, c *memChain) bool {
			chains = append(chains, Chain{Key: k, Versions: slices.Clone(c.versions)})
			return len(chains) < n
		})
		e.mu.RUnlock()
		for _, c := range chains {
			if !fn(c) {
				return
			}
		}
		if len(chains) < n {
			return
		}
		lo = KeyAfter(chains[n-1].Key)
	}
}

func (e *Mem) IngestChains(chains []Chain) error {
	e.mu.Lock()
	e.tab.ingest(chains, false)
	e.mu.Unlock()
	return nil
}

// SetBounds drops the chains outside [start, end): Mem keeps no bounds,
// and nothing beneath a dropped chain could show through.
func (e *Mem) SetBounds(start, end []byte) error {
	start, end = ownBound(start), ownBound(end)
	e.mu.Lock()
	defer e.mu.Unlock()
	var out [][]byte // points into the tree: no row bytes
	e.tab.rows.Ascend(nil, nil, func(k []byte, _ *memChain) bool {
		if !boundsContain(start, end, k) {
			out = append(out, k)
		}
		return true
	})
	for _, k := range out {
		e.tab.drop(k)
	}
	return nil
}

func (e *Mem) Commission() error { return nil }

// LastDurable for Mem is truetime.Max: the engine never recovers to less
// than it serves (because it never recovers at all).
func (e *Mem) LastDurable() truetime.Timestamp { return truetime.Max }

func (e *Mem) Crashed() bool { return false }

func (e *Mem) Stats() Stats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return Stats{
		Kind:          "mem",
		Keys:          e.tab.rows.Len(),
		MemtableKeys:  e.tab.rows.Len(),
		MemtableBytes: e.tab.bytes,
		LastDurable:   truetime.Max,
	}
}

func (e *Mem) Close() error { return nil }

// MemFactory hands out fresh in-memory engines; nothing ever persists.
type MemFactory struct{}

func (MemFactory) Open(id uint64, start, end []byte) (Engine, error) { return NewMem(), nil }
func (MemFactory) List() ([]TabletMeta, error)                       { return nil, nil }
func (MemFactory) Destroy(id uint64) error                           { return nil }

// boundsContain reports whether key lies in [start, end) with nil
// meaning unbounded.
func boundsContain(start, end, key []byte) bool {
	if start != nil && bytes.Compare(key, start) < 0 {
		return false
	}
	if end != nil && bytes.Compare(key, end) >= 0 {
		return false
	}
	return true
}
