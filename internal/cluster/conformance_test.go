package cluster

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"firestore/internal/storage"
	"firestore/internal/truetime"
)

// model is the conformance oracle: every version ever applied, per key,
// oldest first. The suite keeps all timestamps within storage.GCRetention
// of each other, so no engine may have trimmed anything and the model is
// exact at every timestamp.
type model map[string][]storage.Version

func (m model) at(key string, ts truetime.Timestamp) ([]byte, truetime.Timestamp, bool) {
	vs := m[key]
	for i := len(vs) - 1; i >= 0; i-- {
		if vs[i].TS <= ts {
			return vs[i].Value, vs[i].TS, !vs[i].Deleted
		}
	}
	return nil, 0, false
}

// keys returns the model's keys in [lo, hi), ascending (nil = unbounded).
func (m model) keys(lo, hi []byte) []string {
	var out []string
	for k := range m {
		if (lo == nil || k >= string(lo)) && (hi == nil || k < string(hi)) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

func (m model) rows(lo, hi []byte, ts truetime.Timestamp, reverse bool) []storage.Row {
	var out []storage.Row
	for _, k := range m.keys(lo, hi) {
		if v, vts, ok := m.at(k, ts); ok {
			out = append(out, storage.Row{Key: []byte(k), Value: v, TS: vts})
		}
	}
	if reverse {
		slices.Reverse(out)
	}
	return out
}

func (m model) chains(lo, hi []byte) []storage.Chain {
	var out []storage.Chain
	for _, k := range m.keys(lo, hi) {
		out = append(out, storage.Chain{Key: []byte(k), Versions: m[k]})
	}
	return out
}

func sameRows(a, b []storage.Row) bool {
	return slices.EqualFunc(a, b, func(x, y storage.Row) bool {
		return bytes.Equal(x.Key, y.Key) && bytes.Equal(x.Value, y.Value) && x.TS == y.TS
	})
}

func sameChains(a, b []storage.Chain) bool {
	return slices.EqualFunc(a, b, func(x, y storage.Chain) bool {
		return bytes.Equal(x.Key, y.Key) && slices.EqualFunc(x.Versions, y.Versions, func(v, w storage.Version) bool {
			return v.TS == w.TS && v.Deleted == w.Deleted && bytes.Equal(v.Value, w.Value)
		})
	})
}

// getBatch reads keys the way the tablet layer does: in one call where
// the engine offers it, key by key otherwise.
func getBatch(e storage.Engine, keys [][]byte, ts truetime.Timestamp) []storage.BatchGet {
	if bg, ok := e.(storage.BatchGetter); ok {
		return bg.GetBatch(keys, ts)
	}
	out := make([]storage.BatchGet, len(keys))
	for i, k := range keys {
		out[i].Value, out[i].TS, out[i].OK = e.Get(k, ts)
	}
	return out
}

// engineKinds are the engines the suite holds interchangeable. Disk
// engines flush every 1 KiB and compact every third segment, so both
// happen many times within a run.
var engineKinds = []struct {
	name    string
	stats   string // Stats().Kind
	durable bool   // survives the process: the factory Lists it, flushes happen
	factory func(t *testing.T) storage.Factory
}{
	{"mem", "mem", false, func(*testing.T) storage.Factory {
		return &stickyMemFactory{engines: map[uint64]*storage.Mem{}}
	}},
	{"disk", "disk", true, func(t *testing.T) storage.Factory {
		fac, err := storage.NewDiskFactory(t.TempDir(), storage.Options{MemtableCap: 1 << 10, CompactAt: 3})
		if err != nil {
			t.Fatal(err)
		}
		return fac
	}},
	{"remote-mem", "remote-mem", false, func(t *testing.T) storage.Factory {
		coord, _ := startCluster(t, 2, KindMem)
		return coord.Factory(0)
	}},
	{"remote-disk", "remote-disk", true, func(t *testing.T) storage.Factory {
		coord, _ := startCluster(t, 2, KindDisk)
		return coord.Factory(0)
	}},
}

// TestEngineConformance proves the three storage.Engine implementations
// interchangeable: one seeded random op sequence — Apply, Get, GetBatch,
// Scan (both directions, bounded and unbounded, stopped early),
// AscendChains, the migration protocol in both directions (a split:
// CopyChains of the upper half into a pending sibling, Commission, a
// narrowing SetBounds on the source; a merge: a widening SetBounds,
// CopyChains of the right neighbour back, Destroy), close-and-reopen — runs
// identically over Mem, Disk and the remote engine on Mem- and Disk-backed
// peers, every result checked against the model.
func TestEngineConformance(t *testing.T) {
	for _, kind := range engineKinds {
		t.Run(kind.name, func(t *testing.T) {
			c := &conformance{t: t, fac: kind.factory(t), rng: rand.New(rand.NewSource(20)), head: 100,
				statsKind: kind.stats, durable: kind.durable}
			c.open(1, nil, nil, model{})
			for step := 0; step < 700; step++ {
				tb := c.tablets[c.rng.Intn(len(c.tablets))]
				switch op := c.rng.Intn(100); {
				case op < 55:
					c.apply(tb)
				case op < 68:
					c.get(tb)
				case op < 76:
					c.getBatch(tb)
				case op < 90:
					c.scan(tb)
				case op < 93:
					c.chains(tb)
				case op < 96:
					c.split(tb)
				case op < 98:
					c.merge(tb)
				default:
					c.reopen(tb)
				}
			}
			for _, tb := range c.tablets {
				c.reopen(tb)
				c.checkAll(tb)
				tb.eng.Close()
			}
			// Three chunks of chains: 32 + 64 + at least one more.
			if c.splits == 0 || c.merges == 0 || c.moved <= 96 {
				t.Fatalf("%d splits, %d merges, largest copy %d chains: no migration spanned three chunks", c.splits, c.merges, c.moved)
			}
			if kind.durable {
				if c.flushes == 0 {
					t.Error("no memtable flush: the segment read path went unexercised")
				}
				c.checkList()
			}
		})
	}
}

type confTablet struct {
	id     uint64
	lo, hi []byte
	eng    storage.Engine
	model  model
}

type conformance struct {
	t         *testing.T
	fac       storage.Factory
	rng       *rand.Rand
	head      truetime.Timestamp // newest applied timestamp
	tablets   []*confTablet
	statsKind string // Stats().Kind of every engine
	durable   bool
	flushes   int64  // memtable flushes seen, summed over engine lifetimes
	lastID    uint64 // tablet ids are never reused
	splits    int
	merges    int
	moved     int // most chains one migration copied
}

func (c *conformance) open(id uint64, lo, hi []byte, m model) *confTablet {
	c.t.Helper()
	e, err := c.fac.Open(id, lo, hi)
	if err != nil {
		c.t.Fatalf("Open(%d): %v", id, err)
	}
	if err := e.Commission(); err != nil {
		c.t.Fatalf("Commission(%d): %v", id, err)
	}
	tb := &confTablet{id: id, lo: lo, hi: hi, eng: e, model: m}
	c.tablets = append(c.tablets, tb)
	c.lastID = max(c.lastID, id)
	return tb
}

// key draws a key inside tb's bounds from a 300-key space.
func (c *conformance) key(tb *confTablet) []byte {
	for {
		k := []byte(fmt.Sprintf("row-%03d", c.rng.Intn(300)))
		if (tb.lo == nil || bytes.Compare(k, tb.lo) >= 0) && (tb.hi == nil || bytes.Compare(k, tb.hi) < 0) {
			return k
		}
	}
}

// ts draws a read timestamp: usually the head, otherwise anywhere in the
// history (or just before it).
func (c *conformance) ts() truetime.Timestamp {
	if c.rng.Intn(3) == 0 {
		return 99 + truetime.Timestamp(c.rng.Int63n(int64(c.head)-98))
	}
	return c.head
}

// bounds draws a scan range: unbounded on either side half the time.
func (c *conformance) bounds(tb *confTablet) (lo, hi []byte) {
	if c.rng.Intn(2) == 0 {
		lo = c.key(tb)
	}
	if c.rng.Intn(2) == 0 {
		hi = c.key(tb)
	}
	if lo != nil && hi != nil && bytes.Compare(lo, hi) > 0 {
		lo, hi = hi, lo
	}
	return lo, hi
}

func (c *conformance) apply(tb *confTablet) {
	c.t.Helper()
	c.head++
	var writes []storage.Write
	seen := map[string]bool{}
	for n := 1 + c.rng.Intn(3); len(writes) < n; {
		k := c.key(tb)
		if seen[string(k)] {
			continue
		}
		seen[string(k)] = true
		w := storage.Write{Key: k}
		switch r := c.rng.Intn(20); {
		case r < 2:
			w.Delete = true
		case r == 2:
			// A present row with an empty value: must stay distinguishable
			// from a missing one on every engine and across the wire.
		default:
			w.Value = make([]byte, 8+c.rng.Intn(24))
			c.rng.Read(w.Value)
		}
		writes = append(writes, w)
		tb.model[string(k)] = append(tb.model[string(k)], storage.Version{TS: c.head, Value: w.Value, Deleted: w.Delete})
	}
	if err := tb.eng.Apply(context.Background(), writes, c.head); err != nil {
		c.t.Fatalf("Apply@%d: %v", c.head, err)
	}
}

func (c *conformance) get(tb *confTablet) {
	c.t.Helper()
	k, ts := c.key(tb), c.ts()
	v, vts, ok := tb.eng.Get(k, ts)
	wv, wts, wok := tb.model.at(string(k), ts)
	if ok != wok || (ok && (vts != wts || !bytes.Equal(v, wv))) {
		c.t.Fatalf("Get(%s@%d) = %x, %d, %v; want %x, %d, %v", k, ts, v, vts, ok, wv, wts, wok)
	}
}

func (c *conformance) getBatch(tb *confTablet) {
	c.t.Helper()
	ts := c.ts()
	keys := make([][]byte, c.rng.Intn(6))
	for i := range keys {
		keys[i] = c.key(tb)
	}
	got := getBatch(tb.eng, keys, ts)
	if len(got) != len(keys) {
		c.t.Fatalf("GetBatch returned %d results for %d keys", len(got), len(keys))
	}
	for i, k := range keys {
		wv, wts, wok := tb.model.at(string(k), ts)
		if got[i].OK != wok || (wok && (got[i].TS != wts || !bytes.Equal(got[i].Value, wv))) {
			c.t.Fatalf("GetBatch[%d](%s@%d) = %+v; want %x, %d, %v", i, k, ts, got[i], wv, wts, wok)
		}
	}
}

func (c *conformance) scan(tb *confTablet) {
	c.t.Helper()
	lo, hi := c.bounds(tb)
	ts, reverse := c.ts(), c.rng.Intn(2) == 0
	want := tb.model.rows(lo, hi, ts, reverse)
	limit := len(want) + 1 // never reached: the scan runs to the end
	if len(want) > 0 && c.rng.Intn(3) == 0 {
		limit = 1 + c.rng.Intn(len(want))
	}
	var got []storage.Row
	finished := tb.eng.Scan(lo, hi, ts, reverse, func(r storage.Row) bool {
		got = append(got, r)
		return len(got) < limit
	})
	if finished != (limit > len(want)) {
		c.t.Fatalf("Scan[%s,%s)@%d reverse=%v returned %v after %d of %d rows (limit %d)", lo, hi, ts, reverse, finished, len(got), len(want), limit)
	}
	if !sameRows(got, want[:min(limit, len(want))]) {
		c.t.Fatalf("Scan[%s,%s)@%d reverse=%v limit=%d:\n got %v\nwant %v", lo, hi, ts, reverse, limit, got, want)
	}
}

func (c *conformance) chains(tb *confTablet) {
	c.t.Helper()
	lo, hi := c.bounds(tb)
	var got []storage.Chain
	tb.eng.AscendChains(lo, hi, func(ch storage.Chain) bool {
		got = append(got, ch)
		return true
	})
	if want := tb.model.chains(lo, hi); !sameChains(got, want) {
		c.t.Fatalf("AscendChains[%s,%s):\n got %v\nwant %v", lo, hi, got, want)
	}
}

// split moves the upper half of tb's keys to a new sibling engine the way
// spanner splits a tablet: copy into a pending sibling, commission it,
// narrow the source. It waits for a tablet whose upper half spans three
// chunks.
func (c *conformance) split(tb *confTablet) {
	c.t.Helper()
	keys := tb.model.keys(nil, nil)
	if len(keys) < 200 {
		return
	}
	at := []byte(keys[len(keys)/2])
	c.lastID++
	e, err := c.fac.Open(c.lastID, at, tb.hi)
	if err != nil {
		c.t.Fatalf("Open(%d): %v", c.lastID, err)
	}
	sib := &confTablet{id: c.lastID, lo: at, hi: tb.hi, eng: e, model: model{}}
	c.tablets = append(c.tablets, sib)
	c.copy(sib, tb, at, nil)
	if err := e.Commission(); err != nil {
		c.t.Fatalf("Commission(%d): %v", sib.id, err)
	}
	// A sibling that holds nothing but ingested chains must recover them,
	// and report them durable, like applied writes.
	c.reopen(sib)
	oldHi := tb.hi
	c.setBounds(tb, tb.lo, at)
	// The narrowed source reads absent outside its bounds at every
	// timestamp, and widening it back resurrects nothing.
	c.checkAll(tb)
	c.setBounds(tb, tb.lo, oldHi)
	c.checkAll(tb)
	c.setBounds(tb, tb.lo, at)
	c.checkAll(sib)
	c.splits++
}

// merge folds tb's right neighbour back into it the way spanner merges
// cold tablets: widen, copy, destroy. The chains land on whatever the
// split that once narrowed tb left behind there.
func (c *conformance) merge(tb *confTablet) {
	c.t.Helper()
	i := slices.IndexFunc(c.tablets, func(o *confTablet) bool { return tb.hi != nil && bytes.Equal(o.lo, tb.hi) })
	if i < 0 {
		return
	}
	nb := c.tablets[i]
	c.setBounds(tb, tb.lo, nb.hi)
	c.copy(tb, nb, nil, nil)
	if err := nb.eng.Close(); err != nil {
		c.t.Fatalf("Close(%d): %v", nb.id, err)
	}
	if err := c.fac.Destroy(nb.id); err != nil {
		c.t.Fatalf("Destroy(%d): %v", nb.id, err)
	}
	c.tablets = slices.Delete(c.tablets, i, i+1)
	c.checkAll(tb)
	c.merges++
}

// copy runs storage.CopyChains over [lo, hi) of src and moves the model's
// chains with it. Old versions and tombstones travel: every check after
// it reads the destination at timestamps across the whole history.
func (c *conformance) copy(dst, src *confTablet, lo, hi []byte) {
	c.t.Helper()
	keys := src.model.keys(lo, hi)
	n, err := storage.CopyChains(dst.eng, src.eng, lo, hi)
	if err != nil || n != len(keys) {
		c.t.Fatalf("CopyChains[%s,%s) %d -> %d = %d, %v; want %d chains", lo, hi, src.id, dst.id, n, err, len(keys))
	}
	for _, k := range keys {
		dst.model[k] = src.model[k]
		delete(src.model, k)
	}
	c.moved = max(c.moved, n)
}

func (c *conformance) setBounds(tb *confTablet, lo, hi []byte) {
	c.t.Helper()
	if err := tb.eng.SetBounds(lo, hi); err != nil {
		c.t.Fatalf("SetBounds(%d, [%s,%s)): %v", tb.id, lo, hi, err)
	}
	tb.lo, tb.hi = lo, hi
}

func (c *conformance) reopen(tb *confTablet) {
	c.t.Helper()
	c.flushes += tb.eng.Stats().Flushes
	if err := tb.eng.Close(); err != nil {
		c.t.Fatalf("Close(%d): %v", tb.id, err)
	}
	e, err := c.fac.Open(tb.id, tb.lo, tb.hi)
	if err != nil {
		c.t.Fatalf("re-Open(%d): %v", tb.id, err)
	}
	tb.eng = e
	if newest := tb.newest(); e.LastDurable() < newest {
		c.t.Fatalf("LastDurable after re-open = %d, want >= %d", e.LastDurable(), newest)
	}
}

// newest is the largest timestamp applied to the tablet.
func (tb *confTablet) newest() truetime.Timestamp {
	var ts truetime.Timestamp
	for _, vs := range tb.model {
		ts = max(ts, vs[len(vs)-1].TS)
	}
	return ts
}

// checkAll compares everything the engine can report with the model.
func (c *conformance) checkAll(tb *confTablet) {
	c.t.Helper()
	for _, ts := range []truetime.Timestamp{99, 100 + (c.head-100)/2, c.head, truetime.Max} {
		for _, reverse := range []bool{false, true} {
			var got []storage.Row
			tb.eng.Scan(nil, nil, ts, reverse, func(r storage.Row) bool { got = append(got, r); return true })
			if want := tb.model.rows(nil, nil, ts, reverse); !sameRows(got, want) {
				c.t.Fatalf("tablet %d [%s,%s) full scan @%d reverse=%v: %d rows, want %d; first difference at %d",
					tb.id, tb.lo, tb.hi, ts, reverse, len(got), len(want), firstDiff(got, want))
			}
		}
	}
	var got []storage.Chain
	tb.eng.AscendChains(nil, nil, func(ch storage.Chain) bool { got = append(got, ch); return true })
	if want := tb.model.chains(nil, nil); !sameChains(got, want) {
		c.t.Fatalf("tablet %d chains:\n got %v\nwant %v", tb.id, got, want)
	}
	keys := tb.model.keys(nil, nil)
	// Stats().Keys is exact for memory engines; Disk may count a key once
	// per flush generation.
	if n := tb.eng.Stats().Keys; n < len(keys) || (!c.durable && n != len(keys)) {
		c.t.Fatalf("tablet %d Stats().Keys = %d, model has %d keys", tb.id, n, len(keys))
	}
	for _, i := range []int{0, len(keys) / 2, len(keys) - 1} {
		if k, ok := tb.eng.KeyAt(i); !ok || string(k) != keys[i] {
			c.t.Fatalf("tablet %d KeyAt(%d) = %q, %v; want %q", tb.id, i, k, ok, keys[i])
		}
	}
	if k, ok := tb.eng.KeyAt(len(keys)); ok {
		c.t.Fatalf("tablet %d KeyAt(%d) = %q past the last key", tb.id, len(keys), k)
	}
	if st := tb.eng.Stats(); st.Kind != c.statsKind {
		c.t.Fatalf("tablet %d Stats.Kind = %q, want %q", tb.id, st.Kind, c.statsKind)
	}
	if tb.eng.Crashed() {
		c.t.Fatalf("tablet %d crashed after a healthy run", tb.id)
	}
}

// checkList requires a durable factory to list every tablet with the
// bounds SetBounds left, ordered by start key.
func (c *conformance) checkList() {
	c.t.Helper()
	metas, err := c.fac.List()
	if err != nil {
		c.t.Fatalf("List: %v", err)
	}
	want := slices.Clone(c.tablets)
	slices.SortFunc(want, func(a, b *confTablet) int { return bytes.Compare(a.lo, b.lo) })
	ok := len(metas) == len(want)
	for i := 0; ok && i < len(want); i++ {
		ok = metas[i].ID == want[i].id && bytes.Equal(metas[i].Start, want[i].lo) && bytes.Equal(metas[i].End, want[i].hi)
	}
	if !ok {
		c.t.Fatalf("List = %+v, want the %d tablets of the run with their bounds", metas, len(want))
	}
}

// TestScanInvalidation extends the oracle to a scan that is still running
// while the engine changes under it. fn — which may use the engine it is
// called from — applies newer versions and new keys inside the range,
// forces a flush, forces a compaction and, last, splits away the half of
// the range the scan has not reached (a narrowing SetBounds), each
// between chunks of one Scan. Every delivered row must be the model's at
// the scan's timestamp, in order, none twice and none skipped, at least
// up to the split point.
func TestScanInvalidation(t *testing.T) {
	for _, kind := range engineKinds {
		for _, reverse := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/reverse=%v", kind.name, reverse), func(t *testing.T) {
				c := &conformance{t: t, fac: kind.factory(t), rng: rand.New(rand.NewSource(22)), head: 100}
				tb := c.open(1, nil, nil, model{})
				defer func() { tb.eng.Close() }()
				key := func(i int) []byte { return []byte(fmt.Sprintf("row-%04d", i)) }
				// put applies one small version (25 accounted bytes: a 1 KiB
				// memtable holds 40) or, with pad, one that alone forces a flush.
				put := func(k []byte, pad bool) {
					c.head++
					w := storage.Write{Key: k, Value: []byte{byte(c.rng.Intn(256))}}
					if pad {
						w.Value = make([]byte, 1<<10)
					}
					if c.rng.Intn(12) == 0 {
						w = storage.Write{Key: k, Delete: true}
					}
					tb.model[string(k)] = append(tb.model[string(k)], storage.Version{TS: c.head, Value: w.Value, Deleted: w.Delete})
					if err := tb.eng.Apply(context.Background(), []storage.Write{w}, c.head); err != nil {
						t.Fatalf("Apply@%d: %v", c.head, err)
					}
				}
				const n = 400
				for i := 0; i < n; i++ {
					put(key(i), false)
				}
				for i := 0; i < n; i++ { // overwrites: a key's versions span segments
					put(key(c.rng.Intn(n)), false)
				}
				// Empty the memtable, then leave it more than one chunk deep
				// where the scan starts.
				put([]byte("zz-pad"), true)
				for i := 0; i < 36; i++ {
					if reverse {
						put(key(n-1-i), false)
					} else {
						put(key(i), false)
					}
				}

				lo, hi, ts := key(3), key(n-3), c.head
				want := tb.model.rows(lo, hi, ts, reverse)
				splitAt := want[len(want)*3/4].Key // the scan reaches it after every step below
				var got []storage.Row
				// deepen rewrites the 36 keys the scan is about to reach, so the
				// memtable it reads next is again more than one chunk deep.
				deepen := func() {
					for _, r := range want[len(got)+8:][:36] {
						put(r.Key, false)
					}
				}
				finished := tb.eng.Scan(lo, hi, ts, reverse, func(r storage.Row) bool {
					got = append(got, r)
					switch len(got) {
					case 5: // newer versions behind and ahead of the scan, and new keys
						for i := 0; i < 30; i++ {
							put(key(c.rng.Intn(n)), false)
							put(append(key(c.rng.Intn(n)), '+'), false)
						}
					case 20: // a flush: the memtable the scan was reading is reset
						put([]byte("zz-pad"), true)
						deepen()
					case 70: // three more: the third compacts away every pinned segment
						for i := 0; i < 3; i++ {
							put(key(c.rng.Intn(n)), false)
							put([]byte("zz-pad"), true)
						}
						deepen()
					case len(want) / 2: // split off the far half
						keep := [2][]byte{lo, splitAt}
						if reverse {
							keep = [2][]byte{storage.KeyAfter(splitAt), hi}
						}
						if err := tb.eng.SetBounds(keep[0], keep[1]); err != nil {
							t.Fatalf("SetBounds: %v", err)
						}
					}
					return true
				})
				reached := slices.IndexFunc(want, func(r storage.Row) bool { return bytes.Equal(r.Key, splitAt) })
				if !finished || len(got) < reached || len(got) > len(want) || !sameRows(got, want[:len(got)]) {
					t.Fatalf("Scan across changes finished=%v with %d rows (split point at %d of %d); first difference at %d",
						finished, len(got), reached, len(want), firstDiff(got, want))
				}
				if tb.eng.Crashed() {
					t.Fatal("engine crashed")
				}
				if st := tb.eng.Stats(); kind.durable && (st.Flushes < 4 || st.Compactions < 1) {
					t.Fatalf("%d flushes, %d compactions: the scan crossed neither", st.Flushes, st.Compactions)
				}
			})
		}
	}
}

func firstDiff(got, want []storage.Row) int {
	for i := range got {
		if i >= len(want) || !sameRows(got[i:i+1], want[i:i+1]) {
			return i
		}
	}
	return len(got)
}

// oneHop is a remote engine on a Mem-backed peer over TCP loopback, and a
// five-write batch around one 1 KiB document: what BenchmarkRemoteGet,
// BenchmarkRemoteApply and the allocation guards send across.
func oneHop(t testing.TB) (storage.Engine, []storage.Write) {
	coord, _ := startCluster(t, 1, KindMem)
	e, err := coord.Factory(0).Open(1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	writes := []storage.Write{{Key: []byte("d/users/user000042"), Value: bytes.Repeat([]byte("v"), 1024)}}
	for _, field := range []string{"age", "city", "name"} {
		writes = append(writes, storage.Write{Key: []byte("i/users/" + field + "/000042/user000042"), Value: []byte("/users/user000042")})
	}
	writes = append(writes, storage.Write{Key: []byte("i/users/name/alice/user000042"), Delete: true})
	if err := e.Apply(context.Background(), writes, 5); err != nil {
		t.Fatal(err)
	}
	return e, writes
}

// BenchmarkRemoteGet and BenchmarkRemoteApply are one engine-plane hop
// each, client and server in this process: the way to take a CPU or an
// allocation profile of the wire (-cpuprofile, -memprofile), as
// firestore.BenchmarkYCSBA is for the commit path.
func BenchmarkRemoteGet(b *testing.B) {
	e, writes := oneHop(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := e.Get(writes[0].Key, truetime.Max); !ok {
			b.Fatal("row missing")
		}
	}
}

func BenchmarkRemoteApply(b *testing.B) {
	e, writes := oneHop(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Apply(context.Background(), writes, truetime.Timestamp(10+i)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRemoteGetAllocs and TestRemoteApplyAllocs bound what one hop
// allocates on both sides together (JSON bodies cost 40 and 50): a point
// read is its response, its goroutine and little else; a five-write apply
// adds the ten copies the engine keeps and the memtable's own nodes.
func TestRemoteGetAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts mean nothing under -race")
	}
	e, writes := oneHop(t)
	if got := testing.AllocsPerRun(200, func() { e.Get(writes[0].Key, truetime.Max) }); got > 10 {
		t.Errorf("remote Get: %.0f allocs, want <= 10", got)
	}
}

func TestRemoteApplyAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts mean nothing under -race")
	}
	e, writes := oneHop(t)
	ts := truetime.Timestamp(10)
	if got := testing.AllocsPerRun(200, func() {
		ts++
		if err := e.Apply(context.Background(), writes, ts); err != nil {
			t.Fatal(err)
		}
	}); got > 25 {
		t.Errorf("remote Apply of five writes: %.0f allocs, want <= 25", got)
	}
}
