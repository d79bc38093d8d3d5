package core

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"firestore/internal/backend"
	"firestore/internal/cluster"
	"firestore/internal/doc"
	"firestore/internal/obs"
	"firestore/internal/query"
	"firestore/internal/storage"
	"firestore/internal/truetime"
)

// scanCount is what the engines under a region did for its range reads:
// Scan calls, and rows they handed up before the caller said stop.
type scanCount struct {
	scans, rows atomic.Int64
	segments    func() int
}

// countingFactory wraps every engine a factory opens with the counter.
type countingFactory struct {
	storage.Factory
	c *scanCount
}

type countingEngine struct {
	storage.Engine
	c *scanCount
}

func (f countingFactory) Open(id uint64, start, end []byte) (storage.Engine, error) {
	e, err := f.Factory.Open(id, start, end)
	if err != nil {
		return nil, err
	}
	if prev := f.c.segments; e.Stats().Kind == "disk" {
		f.c.segments = func() int { return e.Stats().Segments + prev() }
	}
	return &countingEngine{Engine: e, c: f.c}, nil
}

func (e *countingEngine) Scan(lo, hi []byte, ts truetime.Timestamp, reverse bool, fn func(storage.Row) bool) bool {
	e.c.scans.Add(1)
	return e.Engine.Scan(lo, hi, ts, reverse, func(r storage.Row) bool {
		e.c.rows.Add(1)
		return fn(r)
	})
}

// costRegion opens a region of n restaurants (ten cities, round robin)
// over the named engine kind with every engine counted. rpcs reads the
// engine.scan RPCs issued so far (always 0 off the wire).
func costRegion(t *testing.T, kind string, n int) (r *Region, c *scanCount, rpcs func() int64) {
	t.Helper()
	c = &scanCount{segments: func() int { return 0 }}
	rpcs = func() int64 { return 0 }
	var under func(i int) (storage.Factory, error)
	switch kind {
	case "mem":
		under = func(int) (storage.Factory, error) { return storage.MemFactory{}, nil }
	case "disk":
		dir := t.TempDir()
		under = func(i int) (storage.Factory, error) {
			// No compaction: the big collection's flushes pile up as
			// segments under the query.
			return storage.NewDiskFactory(fmt.Sprintf("%s/spanner-%d", dir, i), storage.Options{MemtableCap: 1 << 20, CompactAt: -1})
		}
	case "wire":
		coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(coord.Close)
		for _, name := range []string{"ts0", "ts1"} {
			ts, err := cluster.NewTabletServer(cluster.TabletServerConfig{Name: name, Join: coord.Addr(), Kind: cluster.KindMem})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(ts.Close)
		}
		if err := coord.WaitForPeers(2, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		coord.Pool().SetObs(reg)
		rpcs = func() (n int64) {
			for _, peer := range []string{"ts0", "ts1"} {
				n += reg.Counter("transport.rpcs_total", obs.Labels{"peer": peer, "method": "engine.scan"}).Value()
			}
			return n
		}
		under = func(i int) (storage.Factory, error) { return coord.Factory(i), nil }
	}
	r, err := OpenRegion(Config{TraceSampleProb: -1, KeyVizOff: true, StorageFactory: func(i int) (storage.Factory, error) {
		fac, err := under(i)
		return countingFactory{fac, c}, err
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	if _, err := r.CreateDatabase("app"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < n; {
		var ops []backend.WriteOp
		for ; i < n && len(ops) < 200; i++ {
			ops = append(ops, backend.WriteOp{
				Kind: backend.OpSet, Name: doc.MustName(fmt.Sprintf("/restaurants/r%06d", i)),
				Fields: map[string]doc.Value{"city": doc.String(fmt.Sprintf("c%d", i%10)), "kind": doc.String("r")},
			})
		}
		if _, err := r.Commit(ctx, "app", priv, ops); err != nil {
			t.Fatal(err)
		}
	}
	return r, c, rpcs
}

func eq(field, value string) *query.Query {
	return &query.Query{
		Collection: doc.MustCollection("/restaurants"),
		Predicates: []query.Predicate{{Path: doc.FieldPath(field), Op: query.Eq, Value: doc.String(value)}},
	}
}

var countAll = []query.Aggregation{{Kind: query.AggCount, Alias: "n"}}

// allocBytes is the mean bytes fn allocates per run.
func allocBytes(fn func()) uint64 {
	const runs = 5
	fn() // warm pools and lazy state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestQueryCostFollowsResult holds the paper's query contract (§III-C,
// §IV-D3) on every engine: a query's cost follows its result set, never
// the collection. The same limit-20 query over 1 000 and over 20 000
// documents makes the engines hand up the same rows and allocates the
// same; over the wire it is one small engine.scan RPC; and a COUNT that
// must visit a twenty times longer range holds no more memory for it.
func TestQueryCostFollowsResult(t *testing.T) {
	const small, big = 1000, 20000
	ctx := context.Background()
	for _, kind := range []string{"mem", "disk", "wire"} {
		t.Run(kind, func(t *testing.T) {
			type cost struct {
				rows, scans, rpcs int64
				bytes, count      uint64
			}
			measure := func(n int) (c cost) {
				r, sc, rpcs := costRegion(t, kind, n)
				if kind == "disk" && n == big && sc.segments() < 3 {
					t.Fatalf("%d segments under the query, want >= 3", sc.segments())
				}
				limit20 := eq("city", "c3")
				limit20.Limit = 20
				run := func() {
					res, _, err := r.RunQuery(ctx, "app", priv, limit20, nil, 0)
					if err != nil || len(res.Docs) != 20 || res.Docs[19].Name.ID() != "r000193" {
						t.Fatalf("limit-20 query over %d documents = %d docs, %v", n, len(res.Docs), err)
					}
				}
				c.bytes = allocBytes(run)
				rows, scans, calls := sc.rows.Load(), sc.scans.Load(), rpcs()
				run()
				c.rows, c.scans, c.rpcs = sc.rows.Load()-rows, sc.scans.Load()-scans, rpcs()-calls

				rows = sc.rows.Load()
				c.count = allocBytes(func() {
					res, _, err := r.Backend.RunAggregation(ctx, "app", priv, eq("kind", "r"), countAll, 0)
					if err != nil || res.Values["n"].IntVal() != int64(n) {
						t.Fatalf("COUNT over %d documents = %v, %v", n, res, err)
					}
				})
				if visited := (sc.rows.Load() - rows) / 6; visited < int64(n) {
					t.Fatalf("COUNT over %d documents visited %d rows", n, visited)
				}
				return c
			}
			s, b := measure(small), measure(big)
			t.Logf("limit 20: %d documents %+v; %d documents %+v", small, s, big, b)
			chunk := int64(storage.NextScanChunk(0))
			if b.scans != 1 || b.rows > s.rows+chunk || b.rows > 2*chunk {
				t.Errorf("limit-20 query: %d scans handing up %d rows over %d documents, %d rows over %d", b.scans, b.rows, big, s.rows, small)
			}
			// Background goroutines allocate a few tens of KB around a run;
			// resolving the 2 000-row range first cost hundreds.
			if b.bytes > s.bytes+128<<10 && !raceDetector {
				t.Errorf("limit-20 query allocates %d bytes over %d documents, %d over %d", b.bytes, big, s.bytes, small)
			}
			if kind == "wire" && (b.rpcs != 1 || b.rows > 64) {
				t.Errorf("limit-20 query over the wire: %d engine.scan RPCs carrying %d rows, want 1 carrying <= 64", b.rpcs, b.rows)
			}
			// Chunks double to a cap the short range never reaches, so allow
			// the long one a few times the short one's memory — not 20x.
			if kind == "mem" && b.count > 4*s.count && !raceDetector {
				t.Errorf("COUNT allocates %d bytes over %d documents, %d over %d: memory follows the range", b.count, big, s.count, small)
			}
		})
	}
}

// TestWireScanArrivesInBoundedFrames: a range of a few thousand rows read
// to exhaustion over the wire arrives in several engine.scan RPCs — no
// frame grows with the range, which is what makes a range beyond
// transport.MaxFrame readable at all — complete and in order.
func TestWireScanArrivesInBoundedFrames(t *testing.T) {
	const n = 3000
	r, c, rpcs := costRegion(t, "wire", n)
	before := rpcs()
	res, _, err := r.Backend.RunAggregation(context.Background(), "app", priv, eq("kind", "r"), countAll, 0)
	if err != nil || res.Values["n"].IntVal() != n {
		t.Fatalf("COUNT = %v, %v", res, err)
	}
	if calls := rpcs() - before; calls < 2 || calls > 16 {
		t.Errorf("%d rows arrived in %d engine.scan RPCs, want several bounded ones", n, calls)
	}

	// The same through the tablet layer, row by row.
	db := r.Spanners[0]
	if r.Spanners[1].Stats().Commits > db.Stats().Commits {
		db = r.Spanners[1]
	}
	c.rows.Store(0)
	before = rpcs()
	var last []byte
	rows := 0
	err = db.SnapshotScan(context.Background(), nil, nil, db.StrongReadTimestamp(), false, func(row storage.Row) bool {
		if last != nil && string(row.Key) <= string(last) {
			t.Fatalf("row %d %q after %q", rows, row.Key, last)
		}
		last = row.Key
		rows++
		return true
	})
	if err != nil || rows < 3*n || int64(rows) != c.rows.Load() {
		t.Fatalf("full scan: %d rows (engines handed up %d), %v", rows, c.rows.Load(), err)
	}
	if calls := rpcs() - before; calls < int64(rows)/storage.MaxScanChunk {
		t.Errorf("%d rows in %d engine.scan RPCs: a frame carried more than the largest chunk", rows, calls)
	}
}
