package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"firestore/internal/backend"
	"firestore/internal/cluster"
	"firestore/internal/doc"
	"firestore/internal/encoding"
	"firestore/internal/index"
	"firestore/internal/query"
	"firestore/internal/rtcache"
	"firestore/internal/spanner"
	"firestore/internal/storage"
	"firestore/internal/transport"
	"firestore/internal/truetime"
	"firestore/internal/wfq"
)

// The layer probes re-enact sampled generated requests step by step, one
// benchmark-side span per step under a root span per request, against
// standalone instances of each layer (or, for the composed firestore.*,
// backend.* and frontend.* steps, against the run's live region). A
// composite layer is timed composed and alone — spanner.commit over the
// workload's engine kind next to the same write set on the bare engine,
// cluster.apply next to a bare transport call of the same frame — so its
// self time is composed minus child.

// sliceStorage is the benchmark's own query.Storage: index entries and
// documents in sorted slices, so query.execute times the executor alone.
type sliceStorage struct {
	keys, vals [][]byte
	docs       map[string]*doc.Document
	names      []doc.Name
}

func newSliceStorage(docs []*doc.Document, composites []index.Definition, ex *index.Exemptions) *sliceStorage {
	s := &sliceStorage{docs: map[string]*doc.Document{}}
	type kv struct{ k, v []byte }
	var entries []kv
	for _, d := range docs {
		if _, dup := s.docs[d.Name.String()]; dup {
			continue
		}
		s.docs[d.Name.String()] = d
		s.names = append(s.names, d.Name)
		for _, k := range index.Entries(d, composites, ex) {
			entries = append(entries, kv{k, []byte(d.Name.String())})
		}
	}
	sort.Slice(entries, func(i, j int) bool { return string(entries[i].k) < string(entries[j].k) })
	sort.Slice(s.names, func(i, j int) bool { return s.names[i].Compare(s.names[j]) < 0 })
	for _, e := range entries {
		s.keys, s.vals = append(s.keys, e.k), append(s.vals, e.v)
	}
	return s
}

func (s *sliceStorage) ScanIndex(_ context.Context, lo, hi []byte, fn func(key, value []byte) bool) error {
	i := sort.Search(len(s.keys), func(i int) bool { return string(s.keys[i]) >= string(lo) })
	for ; i < len(s.keys) && (hi == nil || string(s.keys[i]) < string(hi)); i++ {
		if !fn(s.keys[i], s.vals[i]) {
			break
		}
	}
	return nil
}

func (s *sliceStorage) ScanCollection(_ context.Context, c doc.CollectionPath, startAfterID string, fn func(*doc.Document) bool) error {
	for _, n := range s.names {
		if !c.Contains(n) || (startAfterID != "" && n.ID() <= startAfterID) {
			continue
		}
		if !fn(s.docs[n.String()]) {
			break
		}
	}
	return nil
}

func (s *sliceStorage) GetDocument(_ context.Context, name doc.Name) (*doc.Document, error) {
	return s.docs[name.String()], nil
}

// probeDiskMemtableCap makes the standalone disk engine flush while the
// sampled documents are preloaded, so its gets and scans reach segments
// as the ycsb_a_disk region's do.
const probeDiskMemtableCap = 64 << 10

// wireWrite mirrors the JSON shape of the cluster's engine.apply body so
// the bare transport call carries a frame of the same size.
type wireWrite struct {
	Key    []byte `json:"k"`
	Value  []byte `json:"v,omitempty"`
	Delete bool   `json:"d,omitempty"`
}

// sample is one sampled write prepared for every layer: documents,
// encodings and the row-level write set the backend would commit.
type sample struct {
	name     doc.Name
	old, new *doc.Document
	base     *doc.Document // what the stores hold before the write: old, or new for a create
	blob     []byte
	encoded  [][]byte // each top-level field value, encoded
	key      []byte   // entity row key
	writes   []storage.Write
	wire     []wireWrite
}

// probeRig holds the standalone layer instances.
type probeRig struct {
	dir     string
	clock   truetime.Clock
	ex      index.Exemptions
	samples []sample
	slice   *sliceStorage

	span   *spanner.DB
	mem    *storage.Mem
	disk   storage.Engine
	remote storage.Engine
	coord  *cluster.Coordinator
	peer   *cluster.TabletServer
	echo   *transport.Server
	conn   *transport.Conn
	cache  *rtcache.Cache
	sched  *wfq.Scheduler
	lastTS truetime.Timestamp
}

func (r *probeRig) close() {
	if r.span != nil {
		r.span.Close()
	}
	if r.disk != nil {
		r.disk.Close()
	}
	if r.conn != nil {
		r.conn.Close()
	}
	if r.echo != nil {
		r.echo.Close()
	}
	if r.remote != nil {
		r.remote.Close()
	}
	if r.peer != nil {
		r.peer.Close()
	}
	if r.coord != nil {
		r.coord.Close()
	}
	if r.cache != nil {
		r.cache.Close()
	}
	if r.sched != nil {
		r.sched.Close()
	}
	if r.dir != "" {
		os.RemoveAll(r.dir) //fslint:ignore iodiscipline removes the probes' scratch directory
	}
}

// nextTS hands the bare engines strictly increasing commit timestamps.
func (r *probeRig) nextTS() truetime.Timestamp {
	ts := r.clock.Now().Latest
	if ts <= r.lastTS {
		ts = r.lastTS + 1
	}
	r.lastTS = ts
	return ts
}

// stubSubscriber stands in for a frontend connection on the standalone
// real-time cache, so prepare/accept runs its matching and forwarding.
type stubSubscriber struct{}

func (stubSubscriber) OnUpdate(int, int64, rtcache.Update)        {}
func (stubSubscriber) OnWatermark(int, int64, truetime.Timestamp) {}
func (stubSubscriber) OnReset(int, int64)                         {}

func newProbeRig(in probeInputs, kind engineKind, scratch string) (_ *probeRig, err error) {
	r := &probeRig{clock: truetime.NewSystem(time.Nanosecond)}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	if r.dir, err = os.MkdirTemp(scratch, "probes-"); err != nil { //fslint:ignore iodiscipline scratch directory for the standalone disk engines
		return nil, err
	}
	coll := doc.MustCollection("/" + in.collection)
	var docs []*doc.Document
	for _, w := range in.writes {
		name, err := coll.Doc(w.id)
		if err != nil {
			return nil, err
		}
		s := sample{name: name, new: doc.New(name, toFields(w.data))}
		s.base = s.new
		if w.old != nil {
			s.old = doc.New(name, toFields(w.old))
			s.base = s.old
		}
		s.blob = doc.Marshal(s.new)
		for _, f := range s.new.FieldNames() {
			s.encoded = append(s.encoded, encoding.EncodeValue(nil, s.new.Fields[f]))
		}
		s.key = append([]byte("e/"), encoding.EncodeName(nil, name)...)
		s.writes = []storage.Write{{Key: s.key, Value: s.blob}}
		removed, added := index.Diff(s.old, s.new, in.composites, &r.ex)
		for _, k := range removed {
			s.writes = append(s.writes, storage.Write{Key: append([]byte("i/"), k...), Delete: true})
		}
		for _, k := range added {
			s.writes = append(s.writes, storage.Write{Key: append([]byte("i/"), k...), Value: []byte(name.String())})
		}
		for _, w := range s.writes {
			s.wire = append(s.wire, wireWrite{Key: w.Key, Value: w.Value, Delete: w.Delete})
		}
		r.samples = append(r.samples, s)
		docs = append(docs, s.base)
	}
	r.slice = newSliceStorage(docs, in.composites, &r.ex)

	// The mini cluster: one tablet server on TCP loopback.
	if r.coord, err = cluster.NewCoordinator(cluster.CoordinatorConfig{}); err != nil {
		return nil, err
	}
	if r.peer, err = cluster.NewTabletServer(cluster.TabletServerConfig{Name: "probe-ts", Join: r.coord.Addr(), Kind: cluster.KindMem}); err != nil {
		return nil, err
	}
	if err = r.coord.WaitForPeers(1, 5*time.Second); err != nil {
		return nil, err
	}
	diskFac, err := storage.NewDiskFactory(r.dir+"/bare", storage.Options{MemtableCap: probeDiskMemtableCap})
	if err != nil {
		return nil, err
	}
	open := func(f storage.Factory) (storage.Engine, error) {
		e, err := f.Open(1, nil, nil)
		if err != nil {
			return nil, err
		}
		return e, e.Commission()
	}
	r.mem = storage.NewMem()
	if r.disk, err = open(diskFac); err != nil {
		return nil, err
	}
	if r.remote, err = open(r.coord.Factory(1)); err != nil {
		return nil, err
	}

	// spanner over the engine kind this workload runs on.
	var spanFac storage.Factory
	switch kind {
	case engineDisk:
		if spanFac, err = storage.NewDiskFactory(r.dir+"/spanner", storage.Options{MemtableCap: probeDiskMemtableCap}); err != nil {
			return nil, err
		}
	case engineWire:
		spanFac = r.coord.Factory(0)
	}
	if r.span, err = spanner.Open(spanner.Config{Clock: r.clock, Storage: spanFac}); err != nil {
		return nil, err
	}

	// Preload every store with what it would hold before each sampled write.
	ctx := context.Background()
	for _, s := range r.samples {
		load := []storage.Write{{Key: s.key, Value: doc.Marshal(s.base)}}
		for _, k := range index.Entries(s.base, in.composites, &r.ex) {
			load = append(load, storage.Write{Key: append([]byte("i/"), k...), Value: []byte(s.name.String())})
		}
		for _, e := range []storage.Engine{r.mem, r.disk, r.remote} {
			if err = e.Apply(ctx, load, r.nextTS()); err != nil {
				return nil, err
			}
		}
		txn := r.span.Begin()
		for _, w := range load {
			txn.Put(w.Key, w.Value)
		}
		if _, err = txn.Commit(ctx, 0, 0); err != nil {
			return nil, err
		}
	}

	r.echo = transport.NewServer()
	r.echo.Handle("echo", func(_ context.Context, body json.RawMessage) (any, error) { return len(body), nil })
	addr, err := r.echo.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if r.conn, err = transport.Dial(addr); err != nil {
		return nil, err
	}

	r.cache = rtcache.New(rtcache.Config{Clock: r.clock})
	r.cache.Subscribe(stubSubscriber{}, dbID, in.queries[0].internal(), r.clock.Now().Latest, r.cache.ReserveSub())
	r.sched = wfq.New(wfq.Config{Workers: clients()})
	return r, nil
}

// probeStats collects one probe's per-call samples.
type probeStats struct {
	ns            []time.Duration
	allocs, bytes []float64
}

// runProbes re-enacts the sampled requests and fills in the probe
// metrics plus query.scanned_entries_per_result.
func runProbes(ctx context.Context, out map[string]metric, tr *trace, b bench, o runOpts) error {
	in := b.probeInputs(o.sz.probeSamples)
	e := b.env()
	rig, err := newProbeRig(in, e.kind, o.scratch)
	if err != nil {
		return err
	}
	defer rig.close()

	priv := backend.Principal{Privileged: true}
	col := e.client.Collection(in.collection)
	catDB, err := e.region.Catalog.Get(dbID)
	if err != nil {
		return err
	}
	stats := map[string]*probeStats{}
	for _, p := range layerProbes {
		stats[p] = &probeStats{}
	}
	var firstErr error
	fail := func(step string, err error) {
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", step, err)
		}
	}
	// step runs one call under the current request's root span. The
	// samples are walked twice: the first pass times each call and records
	// its span, the second only counts its allocations, because reading
	// the allocator's statistics stops the world and would otherwise sit
	// between every pair of timed calls. per is how many units of work the
	// call did (fields encoded, documents in a batch), so every probe
	// reports per unit.
	var req, root string
	timing := true
	step := func(name string, per int, fn func() error) {
		st := stats[name]
		if timing {
			var err error
			d := tr.span(req, name, root, func() { err = fn() })
			fail(name, err)
			st.ns = append(st.ns, d/time.Duration(per))
			return
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		err := fn()
		runtime.ReadMemStats(&m1)
		fail(name, err)
		st.allocs = append(st.allocs, float64(m1.Mallocs-m0.Mallocs)/float64(per))
		st.bytes = append(st.bytes, float64(m1.TotalAlloc-m0.TotalAlloc)/float64(per))
	}
	// request groups a request's steps, under a root span when timing.
	request := func(id, kind string, steps func()) {
		req, root = id, kind
		if timing {
			tr.span(id, kind, "", steps)
		} else {
			steps()
		}
	}

	var scanned, results int
	const bulkBatch = 100
	bulkNames := make([]doc.Name, bulkBatch)
	for j := range bulkNames {
		if bulkNames[j], err = doc.MustCollection("/" + in.collection).Doc(fmt.Sprintf("probe-bulk-%03d", j)); err != nil {
			return err
		}
	}
	for pass := 0; pass < 2; pass++ {
		timing = pass == 0
		for i, s := range rig.samples {
			w := in.writes[i]
			qs := in.queries[i%len(in.queries)]
			iq := qs.internal()
			ref := col.Doc(w.id)
			fields := toFields(w.data)

			request(fmt.Sprintf("w%d", i), "req.write", func() {
				step("firestore.set", 1, func() error { return ref.Set(ctx, w.data) })
				step("backend.commit", 1, func() error {
					_, err := e.region.Commit(ctx, dbID, priv, []backend.WriteOp{{Kind: backend.OpSet, Name: s.name, Fields: fields}})
					return err
				})
				step("wfq.submit", 1, func() error { return rig.sched.Submit(ctx, dbID, 0, func() {}) })
				step("encoding.encode_name", 1, func() error { encoding.EncodeName(nil, s.name); return nil })
				step("doc.unmarshal", 1, func() error { _, err := doc.Unmarshal(s.blob); return err })
				step("doc.marshal", 1, func() error { doc.Marshal(s.new); return nil })
				step("index.entries", 1, func() error { index.Entries(s.new, in.composites, &rig.ex); return nil })
				step("index.diff", 1, func() error { index.Diff(s.old, s.new, in.composites, &rig.ex); return nil })
				step("encoding.encode_value", len(s.encoded), func() error {
					for _, f := range s.new.FieldNames() {
						encoding.EncodeValue(nil, s.new.Fields[f])
					}
					return nil
				})
				step("rtcache.prepare_accept", 1, func() error {
					id := fmt.Sprintf("probe/%d/%d", pass, i)
					min, err := rig.cache.Prepare(id, dbID, []doc.Name{s.name}, truetime.Max)
					if err != nil {
						return err
					}
					ts := max(rig.clock.Now().Latest, min)
					rig.cache.Accept(ctx, id, rtcache.OutcomeSuccess, ts, []rtcache.Mutation{{Name: s.name, Old: s.old, New: s.new}})
					return nil
				})
				step("spanner.commit", 1, func() error {
					txn := rig.span.Begin()
					for _, w := range s.writes {
						if w.Delete {
							txn.Delete(w.Key)
						} else {
							txn.Put(w.Key, w.Value)
						}
					}
					_, err := txn.Commit(ctx, 0, 0)
					return err
				})
				step("storage.mem.apply", 1, func() error { return rig.mem.Apply(ctx, s.writes, rig.nextTS()) })
				step("storage.disk.apply", 1, func() error { return rig.disk.Apply(ctx, s.writes, rig.nextTS()) })
				step("cluster.apply", 1, func() error { return rig.remote.Apply(ctx, s.writes, rig.nextTS()) })
				step("transport.call", 1, func() error {
					var n int
					return rig.conn.Call(ctx, "echo", struct {
						H      uint64      `json:"h"`
						Writes []wireWrite `json:"writes"`
						TS     int64       `json:"ts"`
					}{1, s.wire, int64(rig.lastTS)}, &n)
				})
			})

			// The standalone reads fetch a row written half the samples ago,
			// not the one the write steps just put in the memtable.
			cold := rig.samples[(i+len(rig.samples)/2)%len(rig.samples)].key
			request(fmt.Sprintf("r%d", i), "req.read", func() {
				step("firestore.get", 1, func() error { _, err := ref.Get(ctx); return err })
				step("backend.get", 1, func() error { _, _, err := e.region.GetDocument(ctx, dbID, priv, s.name, 0); return err })
				step("spanner.snapshot_get", 1, func() error {
					_, _, ok, err := rig.span.SnapshotGet(ctx, cold, rig.span.StrongReadTimestamp())
					if err == nil && !ok {
						err = fmt.Errorf("sampled row missing")
					}
					return err
				})
				get := func(eng storage.Engine) error {
					if _, _, ok := eng.Get(cold, truetime.Max); !ok {
						return fmt.Errorf("sampled row missing")
					}
					return nil
				}
				step("storage.mem.get", 1, func() error { return get(rig.mem) })
				step("storage.disk.get", 1, func() error { return get(rig.disk) })
				step("cluster.get", 1, func() error { return get(rig.remote) })
			})

			request(fmt.Sprintf("q%d", i), "req.query", func() {
				step("firestore.query", 1, func() error { _, err := qs.sdk(e.client).GetAll(ctx); return err })
				step("backend.query", 1, func() error {
					res, _, err := e.region.RunQuery(ctx, dbID, priv, iq, nil, 0)
					if err == nil {
						scanned += res.ScannedEntries
						results += len(res.Docs)
					}
					return err
				})
				var plan *query.Plan
				step("query.build_plan", 1, func() (err error) {
					plan, err = query.BuildPlanWithStats(iq, in.composites, &rig.ex, catDB.Stats())
					return err
				})
				if plan == nil {
					return
				}
				step("query.execute", 1, func() error { _, err := plan.Execute(ctx, rig.slice, nil); return err })
				// Both scans read the first 20 index rows.
				lo, hi := []byte("i/"), encoding.PrefixSuccessor([]byte("i/"))
				step("spanner.snapshot_scan", 1, func() error {
					n := 0
					return rig.span.SnapshotScan(ctx, lo, hi, rig.span.StrongReadTimestamp(), false,
						func(spanner.ScanRow) bool { n++; return n < 20 })
				})
				step("storage.disk.scan", 1, func() error {
					n := 0
					rig.disk.Scan(lo, hi, truetime.Max, false, func(storage.Row) bool { n++; return n < 20 })
					return nil
				})
				step("encoding.decode_value", len(s.encoded), func() error {
					for _, enc := range s.encoded {
						if _, _, err := encoding.DecodeValue(enc); err != nil {
							return err
						}
					}
					return nil
				})
			})

			request(fmt.Sprintf("n%d", i), "req.notify", func() {
				step("frontend.listen", 1, func() error {
					conn := e.region.NewConn(dbID, priv)
					defer conn.Close()
					if _, err := conn.Listen(ctx, iq); err != nil {
						return err
					}
					<-conn.Events() // the initial snapshot
					return nil
				})
			})

			request(fmt.Sprintf("b%d", i), "req.bulk", func() {
				ops := make([]backend.WriteOp, bulkBatch)
				for j := range ops {
					ops[j] = backend.WriteOp{Kind: backend.OpSet, Name: bulkNames[j], Fields: fields}
				}
				step("backend.commit_bulk", bulkBatch, func() error {
					res, err := e.region.CommitBulk(ctx, dbID, backend.Principal{Privileged: true, Batch: true}, ops)
					for _, r := range res {
						if err == nil {
							err = r.Err
						}
					}
					return err
				})
			})
			if firstErr != nil {
				return firstErr
			}
		}
	}

	for name, st := range stats {
		n := len(st.ns)
		out[name+".ns"] = metric{Value: float64(percentile(sortDurations(st.ns), 0.5)), Unit: "ns", N: n}
		out[name+".allocs"] = metric{Value: medianFloat(st.allocs), Unit: "count", N: n}
		out[name+".bytes"] = metric{Value: medianFloat(st.bytes), Unit: "bytes", N: n}
	}
	per := 0.0
	if results > 0 {
		per = float64(scanned) / float64(results)
	}
	out["query.scanned_entries_per_result"] = metric{Value: per, Unit: "ratio", N: results}
	return nil
}
