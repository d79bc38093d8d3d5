package backend

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"hash/maphash"
	"math/rand/v2"
	"sync/atomic"

	"firestore/internal/doc"
	"firestore/internal/truetime"
)

// The memo's bounds: memoSlots entries, in memoWays ways, whose stored
// blobs add up to at most memoBudget bytes.
const memoSlots, memoWays, memoBudget = 1 << 15, 4, 32 << 20

// docMemo remembers decoded document versions. An MVCC version never
// changes, so the document ResolveDoc builds for (database, row key,
// version timestamp) is the same for every reader the engine resolves to
// that version (DESIGN.md "Read path: who owns the bytes"). A hit still
// verifies the engine's blob against the CRC-32 it carries (§VI). One
// memo serves all of a Backend's databases, which evict each other.
//
// It is skewed-associative: a row's set is one slot in each way, each way
// indexed by its own 16 bits of the row key's hash, so rows that share a
// slot in one way rarely share the others, and a row is evicted only
// when all four of its slots are taken.
type docMemo struct {
	seed         maphash.Seed
	ways         [memoWays][memoSlots / memoWays]atomic.Pointer[memoEntry]
	bytes        atomic.Int64 // stored size of the documents in ways
	hits, misses atomic.Int64 // for tests; no metric family reports them
}

// memoEntry is one decoded version, immutable once published.
type memoEntry struct {
	db string
	// key is the row key, shared with the engine or copied by resolve:
	// nothing writes to it once the entry is built.
	key  []byte
	ts   truetime.Timestamp
	sum  uint32 // the blob's stored CRC-32
	size int    // len(blob)
	doc  *doc.Document
}

// resolve is ResolveDoc for the row stored under key in database db,
// answered from the memo when it holds that version and the blob
// verifies, and remembered otherwise. A zero ts is a transaction's own
// buffered write, which is no version.
func (m *docMemo) resolve(db string, key, blob []byte, name doc.Name, ts truetime.Timestamp) (*doc.Document, error) {
	if ts == 0 {
		return ResolveDoc(blob, name, ts)
	}
	h := maphash.Bytes(m.seed, key)
	for w := range memoWays {
		if e := m.slot(h, w).Load(); e != nil && e.ts == ts && e.db == db && bytes.Equal(e.key, key) && verifies(blob, e.sum) {
			m.hits.Add(1)
			return e.doc, nil
		}
	}
	m.misses.Add(1)
	d, err := ResolveDoc(blob, name, ts)
	if err == nil {
		m.put(newMemoEntry(db, bytes.Clone(key), blob, d), ts) // key may be the caller's scratch
	}
	return d, err
}

// verifies reports whether blob carries sum and its body still matches.
func verifies(blob []byte, sum uint32) bool {
	n := len(blob) - 4
	return n >= 0 && binary.BigEndian.Uint32(blob[n:]) == sum && crc32.ChecksumIEEE(blob[:n]) == sum
}

// newMemoEntry builds an unpublished entry for d, decoded from (or
// marshalled into) blob. The entry keeps key, which must never change
// (a key handed to the engine, which keeps it too).
func newMemoEntry(db string, key, blob []byte, d *doc.Document) *memoEntry {
	return &memoEntry{db: db, key: key, sum: binary.BigEndian.Uint32(blob[len(blob)-4:]), size: len(blob), doc: d}
}

// slot is way w's slot for a row key that hashes to h.
func (m *docMemo) slot(h uint64, w int) *atomic.Pointer[memoEntry] {
	return &m.ways[w][uint16(h>>(16*w))%(memoSlots/memoWays)]
}

// put publishes e as version ts in its set: in the slot of the same row,
// else in an empty one, else in place of a random way's entry. It does
// not when the row's slot holds a newer version or e would take the memo
// past its budget.
func (m *docMemo) put(e *memoEntry, ts truetime.Timestamp) {
	e.ts = ts
	h := maphash.Bytes(m.seed, e.key)
	var slot *atomic.Pointer[memoEntry]
	var old *memoEntry
	for w := range memoWays {
		s := m.slot(h, w)
		switch o := s.Load(); {
		case o == nil:
			if slot == nil {
				slot = s
			}
		case bytes.Equal(o.key, e.key) && o.db == e.db:
			if o.ts > ts {
				return
			}
			slot, old = s, o
		}
	}
	if slot == nil {
		slot = m.slot(h, rand.IntN(memoWays))
		old = slot.Load()
	}
	delta := int64(e.size)
	if old != nil {
		delta -= int64(old.size)
	}
	if m.bytes.Load()+delta <= memoBudget && slot.CompareAndSwap(old, e) {
		m.bytes.Add(delta)
	}
}
