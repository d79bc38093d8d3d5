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

// purge installs a purge marker for key: the key reads as absent at
// every timestamp, masking any flushed state. Used by the Disk memtable;
// Mem deletes chains directly.
func (m *memtable) purge(key []byte) {
	if cv, ok := m.rows.Get(key); ok {
		c := cv.(*memChain)
		for _, v := range c.versions {
			m.bytes -= versionBytes(key, v)
		}
		c.versions = nil
		c.purged = true
		return
	}
	m.rows.Set(key, &memChain{purged: true})
}

// ingest installs full chains (replacing any existing chain per key).
func (m *memtable) ingest(chains []Chain) {
	for _, ch := range chains {
		if cv, ok := m.rows.Get(ch.Key); ok {
			old := cv.(*memChain)
			for _, v := range old.versions {
				m.bytes -= versionBytes(ch.Key, v)
			}
		}
		vs := append([]Version(nil), ch.Versions...)
		m.rows.Set(append([]byte(nil), ch.Key...), &memChain{versions: vs, purged: ch.Purged})
		for _, v := range vs {
			m.bytes += versionBytes(ch.Key, v)
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
	// rows is sized to the chunk before the lock is taken, so no round
	// grows it while writers wait.
	var rows []Row
	for n := NextScanChunk(0); ; n = NextScanChunk(n) {
		rows = slices.Grow(rows[:0], n)
		var last []byte
		visited := 0
		visit := func(k []byte, v any) bool {
			if val, vts, ok := chainAt(v.(*memChain).versions, ts); ok {
				rows = append(rows, Row{Key: k, Value: val, TS: vts})
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
		for _, r := range rows {
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
			lo = KeyAfter(last)
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

func (e *Mem) Len() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.tab.rows.Len()
}

func (e *Mem) KeyAt(i int) ([]byte, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.tab.rows.KeyAt(i)
}

func (e *Mem) AscendChains(lo, hi []byte, fn func(Chain) bool) {
	// Chains are collected under the lock and reported after, mirroring
	// Scan; callers see a consistent snapshot.
	e.mu.Lock()
	var chains []Chain
	e.tab.rows.Ascend(lo, hi, func(k []byte, v any) bool {
		c := v.(*memChain)
		if !c.purged {
			chains = append(chains, Chain{Key: k, Versions: c.versions})
		}
		return true
	})
	e.mu.Unlock()
	for _, c := range chains {
		if !fn(c) {
			return
		}
	}
}

func (e *Mem) IngestChains(chains []Chain) error {
	e.mu.Lock()
	e.tab.ingest(chains)
	e.mu.Unlock()
	return nil
}

func (e *Mem) PurgeChains(keys [][]byte) error {
	e.mu.Lock()
	for _, k := range keys {
		if cv, ok := e.tab.rows.Delete(k); ok {
			for _, v := range cv.(*memChain).versions {
				e.tab.bytes -= versionBytes(k, v)
			}
		}
	}
	e.mu.Unlock()
	return nil
}

func (e *Mem) SetBounds(start, end []byte) error { return nil }

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
