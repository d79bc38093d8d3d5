package index

import "sync"

// statsBuckets sizes the per-index prefix-selectivity sketch. Each
// sketch is a counting array indexed by hash(prefix); 1024 buckets keeps
// a sketch at 8 KiB while making collisions rare at the cardinalities a
// single collection's equality prefixes reach in practice. Collisions
// only ever inflate an estimate (two prefixes sharing a bucket), never
// deflate it, and PrefixEntries additionally clamps to the index's total
// entry count.
const statsBuckets = 1024

// Stats is the per-database index-cardinality tracker behind cost-based
// planning. It maintains, incrementally from index-entry diffs applied
// at commit time:
//
//   - a per-index total entry count,
//   - a per-index counting sketch over every equality prefix of every
//     entry (the collection prefix, then the prefix through each value
//     component — exactly the prefixes BuildScan produces for
//     equality-covered fields), and
//   - a per-collection-path document count (for costing Entities full
//     scans).
//
// Stats are in-memory only: after a restart they are empty and the
// planner's zero-estimate tie-breaking degrades to the old greedy
// preference order, so planning stays deterministic and correct — just
// uninformed until writes repopulate the sketches.
type Stats struct {
	mu       sync.RWMutex
	entries  map[uint64]int64
	prefixes map[uint64]*[statsBuckets]int64
	docs     map[string]int64
}

// NewStats returns an empty tracker.
func NewStats() *Stats {
	return &Stats{
		entries:  map[uint64]int64{},
		prefixes: map[uint64]*[statsBuckets]int64{},
		docs:     map[string]int64{},
	}
}

func prefixBucket(p []byte) int {
	return int(fnv1a(fnvOffset, p) % statsBuckets)
}

// ApplyDiff folds one write's index-entry diff into the statistics.
// Callers apply it only after the underlying transaction commits, so the
// sketches never count aborted work.
func (s *Stats) ApplyDiff(removed, added []Entry) {
	if s == nil || (len(removed) == 0 && len(added) == 0) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range removed {
		s.applyEntryLocked(e, -1)
	}
	for _, e := range added {
		s.applyEntryLocked(e, +1)
	}
}

func (s *Stats) applyEntryLocked(e Entry, delta int64) {
	n := s.entries[e.ID] + delta
	if n < 0 {
		n = 0
	}
	s.entries[e.ID] = n
	sk := s.prefixes[e.ID]
	if sk == nil {
		sk = new([statsBuckets]int64)
		s.prefixes[e.ID] = sk
	}
	// The prefixes nest, so the key is hashed once: each prefix's bucket
	// is the running FNV state where that prefix ends.
	h, at := fnvOffset, e.skip
	for _, end := range e.PrefixEnds {
		if end < at || end > len(e.Key) {
			continue
		}
		h, at = fnv1a(h, e.Key[at:end]), end
		b := h % statsBuckets
		if sk[b] += delta; sk[b] < 0 {
			sk[b] = 0
		}
	}
}

// ApplyDoc adjusts the document count for a collection path (insert +1,
// delete -1; plain updates pass 0 and are a no-op).
func (s *Stats) ApplyDoc(collection string, delta int64) {
	if s == nil || delta == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := s.docs[collection] + delta; n <= 0 {
		delete(s.docs, collection)
	} else {
		s.docs[collection] = n
	}
}

// DropIndex discards all statistics for an index (composite removal).
func (s *Stats) DropIndex(id uint64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.entries, id)
	delete(s.prefixes, id)
}

// IndexEntries returns the tracked total entry count for an index.
func (s *Stats) IndexEntries(id uint64) int64 {
	if s == nil {
		return 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.entries[id]
}

// PrefixEntries estimates how many entries of index id begin with the
// given key prefix. The estimate is exact up to sketch collisions (which
// can only overcount) and is clamped to [0, IndexEntries(id)].
func (s *Stats) PrefixEntries(id uint64, prefix []byte) int64 {
	if s == nil {
		return 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	sk := s.prefixes[id]
	if sk == nil {
		return 0
	}
	n := sk[prefixBucket(prefix)]
	if total := s.entries[id]; n > total {
		n = total
	}
	if n < 0 {
		n = 0
	}
	return n
}

// CollectionDocs returns the tracked document count for a collection
// path (the full path string, e.g. "/restaurants").
func (s *Stats) CollectionDocs(collection string) int64 {
	if s == nil {
		return 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.docs[collection]
}

// StatsSnapshot is a point-in-time export of the tracker for debug
// surfaces.
type StatsSnapshot struct {
	Indexes     map[uint64]int64 `json:"indexes"`
	Collections map[string]int64 `json:"collections"`
}

// Snapshot copies the aggregate counters (not the sketches, which are
// an implementation detail) for /debug and fsctl reporting.
func (s *Stats) Snapshot() StatsSnapshot {
	snap := StatsSnapshot{Indexes: map[uint64]int64{}, Collections: map[string]int64{}}
	if s == nil {
		return snap
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for id, n := range s.entries {
		if n > 0 {
			snap.Indexes[id] = n
		}
	}
	for c, n := range s.docs {
		snap.Collections[c] = n
	}
	return snap
}
