package storage

import (
	"bytes"
	"context"
	"slices"
	"sync"

	"firestore/internal/btree"
	"firestore/internal/truetime"
)

// memChain is the in-memory form of a version chain (oldest first).
type memChain struct {
	versions []Version
	// purged masks any flushed state for this key (Disk memtable only;
	// the Mem engine deletes chains outright).
	purged bool
}

// memtable is a B-tree of version chains with byte accounting. Not
// self-locking: the owning engine serializes access.
type memtable struct {
	rows  *btree.Tree
	bytes int64
}

func newMemtable() memtable {
	return memtable{rows: btree.New()}
}

// add appends one version to key's chain, trimming to trimTo newest
// versions (see trimmable) when trimTo > 0.
func (m *memtable) add(key []byte, v Version, trimTo int) {
	m.bytes += versionBytes(key, v)
	cv, ok := m.rows.Get(key)
	if !ok {
		m.rows.Set(key, &memChain{versions: []Version{v}})
		return
	}
	c := cv.(*memChain)
	c.versions = append(c.versions, v)
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
		vs := append([]Version(nil), ch.Versions...)
		m.rows.Set(append([]byte(nil), ch.Key...), &memChain{versions: vs, purged: mask})
		for _, v := range vs {
			m.bytes += versionBytes(ch.Key, v)
		}
	}
}

// drop removes key's chain, if any.
func (m *memtable) drop(key []byte) {
	if cv, ok := m.rows.Delete(key); ok {
		for _, v := range cv.(*memChain).versions {
			m.bytes -= versionBytes(key, v)
		}
	}
}

// reset drops all chains.
func (m *memtable) reset() {
	m.rows = btree.New()
	m.bytes = 0
}

// Mem is the original in-memory engine extracted from
// internal/spanner/tablet.go: a B-tree of version chains trimmed to
// GCHorizon on write. It is the default engine; it has no durability, so
// a crash is total state loss.
type Mem struct {
	mu  sync.Mutex
	tab memtable
}

// NewMem returns an empty in-memory engine.
func NewMem() *Mem {
	return &Mem{tab: newMemtable()}
}

func (e *Mem) Get(key []byte, ts truetime.Timestamp) ([]byte, truetime.Timestamp, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cv, ok := e.tab.rows.Get(key)
	if !ok {
		return nil, 0, false
	}
	return chainAt(cv.(*memChain).versions, ts)
}

func (e *Mem) Scan(lo, hi []byte, ts truetime.Timestamp, reverse bool, fn func(Row) bool) bool {
	// Each round visits one chunk of chains under the lock, resolving
	// the rows visible at ts, and delivers them outside it; the next
	// round re-seeks past the last chain visited (the tree cannot be
	// snapshotted: btree.Clone is a deep copy).
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
		visit := func(k []byte, v any) bool {
			if val, vts, ok := chainAt(v.(*memChain).versions, ts); ok {
				*chunk = append(*chunk, Row{Key: k, Value: val, TS: vts})
			}
			last = k
			visited++
			return visited < n
		}
		e.mu.Lock()
		if reverse {
			e.tab.rows.Descend(lo, hi, visit)
		} else {
			e.tab.rows.Ascend(lo, hi, visit)
		}
		e.mu.Unlock()
		for _, r := range *chunk {
			if !fn(r) {
				return false
			}
		}
		if visited < n {
			return true
		}
		if reverse {
			hi = last
		} else {
			resume = append(append(resume[:0], last...), 0)
			lo = resume
		}
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
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.tab.rows.KeyAt(i)
}

func (e *Mem) AscendChains(lo, hi []byte, fn func(Chain) bool) {
	// Chunked like Scan: one chunk of chains copied under the lock,
	// delivered outside it, the next round re-seeking past the last.
	var chains []Chain
	for n := NextScanChunk(0); ; n = NextScanChunk(n) {
		chains = slices.Grow(chains[:0], n)
		e.mu.Lock()
		e.tab.rows.Ascend(lo, hi, func(k []byte, v any) bool {
			chains = append(chains, Chain{Key: k, Versions: slices.Clone(v.(*memChain).versions)})
			return len(chains) < n
		})
		e.mu.Unlock()
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
	e.tab.rows.Ascend(nil, nil, func(k []byte, _ any) bool {
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
	e.mu.Lock()
	defer e.mu.Unlock()
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
