package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"firestore/firestore"
	"firestore/internal/ycsb"
)

const ycsbCollection = "ycsb"

// ycsbBench is YCSB workload A over one of the three engines. The mem,
// disk and wire variants replay the same generated op sequence.
type ycsbBench struct {
	kind    engineKind
	in      *ycsbInputs
	scratch string
	seed    int64

	e    *env
	refs []*firestore.DocumentRef
	next []int
	// last[c][key] is 1 + the sequence number of client c's last acked
	// write to key (0 = never wrote it): the shadow state the check
	// compares the database with.
	last [][]uint64
}

func newYCSB(kind engineKind, seed int64, sz sizes, scratch string) *ycsbBench {
	return &ycsbBench{
		kind:    kind,
		in:      genYCSB(seed, sz.ycsbDocs, clients(), sz.opsPerClient),
		scratch: scratch,
		seed:    seed,
	}
}

func (b *ycsbBench) inputsSHA() string { return b.in.sha }
func (b *ycsbBench) env() *env         { return b.e }
func (b *ycsbBench) tearDown()         { b.e.destroy() }

func (b *ycsbBench) setUp(ctx context.Context) (int, time.Duration, error) {
	e, err := openEnv(b.kind, b.scratch, "")
	if err != nil {
		return 0, 0, err
	}
	b.e = e
	b.bind()
	b.next = make([]int, clients())
	b.last = make([][]uint64, clients())
	for c := range b.last {
		b.last[c] = make([]uint64, b.in.records)
	}
	load, err := bulkLoad(ctx, e.client, b.in.records, func(i int) (*firestore.DocumentRef, map[string]any) {
		return b.refs[i], map[string]any{"field0": b.in.value(int32(i), loaderClient, 0)}
	})
	return b.in.records, load, err
}

// bind builds the per-key document references against the current env.
func (b *ycsbBench) bind() {
	col := b.e.client.Collection(ycsbCollection)
	b.refs = make([]*firestore.DocumentRef, b.in.records)
	for i := range b.refs {
		b.refs[i] = col.Doc(ycsb.Key(i))
	}
}

func (b *ycsbBench) drive(ctx context.Context, d time.Duration) *window {
	return closedLoop(ctx, d, b.next, b.do)
}

func (b *ycsbBench) do(ctx context.Context, c, seq int) (opKind, error) {
	ops := b.in.ops[c]
	op := ops[seq%len(ops)] // a long run wraps; any order of Gets and Sets is valid
	ref := b.refs[op.key]
	if op.read {
		snap, err := ref.Get(ctx)
		if err == nil && !snap.Exists() {
			err = fmt.Errorf("ycsb: %s missing", ref.Path())
		}
		return opRead, err
	}
	err := ref.Set(ctx, map[string]any{"field0": b.in.value(op.key, uint32(c), uint64(seq))})
	if err == nil {
		b.last[c][op.key] = uint64(seq) + 1
	}
	return opWrite, err
}

// userBytes is the user data one successful write carries.
func (b *ycsbBench) userBytes() int { return ycsbRecordSize }

// liveUserBytes is the user data a reader can reach after the run.
func (b *ycsbBench) liveUserBytes() int64 { return int64(b.in.records) * ycsbRecordSize }

// check verifies the record count and that a 1000-key sample reads back
// the last acked write of one of the clients that wrote the key (exactly
// that write when a single client did), or the loaded value when none
// did. On disk it then restarts the region from the same directory and
// checks again: acknowledged writes must survive.
func (b *ycsbBench) check(ctx context.Context) error {
	if err := b.checkOnce(ctx); err != nil {
		return err
	}
	if b.kind != engineDisk {
		return nil
	}
	dir := b.e.dir
	b.e.close()
	e, err := openEnv(engineDisk, b.scratch, dir)
	if err != nil {
		return fmt.Errorf("reopen %s: %w", dir, err)
	}
	b.e = e
	b.bind()
	if err := b.checkOnce(ctx); err != nil {
		return fmt.Errorf("after restart: %w", err)
	}
	return nil
}

func (b *ycsbBench) checkOnce(ctx context.Context) error {
	n, err := countDocs(ctx, b.e.client, ycsbCollection)
	if err != nil {
		return err
	}
	if n != int64(b.in.records) {
		return fmt.Errorf("ycsb: %d documents, generator has %d", n, b.in.records)
	}
	rng := rand.New(rand.NewSource(b.seed + 99))
	for i := 0; i < min(1000, b.in.records); i++ {
		key := int32(rng.Intn(b.in.records))
		snap, err := b.refs[key].Get(ctx)
		if err != nil {
			return err
		}
		raw, _ := snap.Data()["field0"].([]byte)
		if err := b.checkValue(key, raw); err != nil {
			return err
		}
	}
	return nil
}

func (b *ycsbBench) checkValue(key int32, raw []byte) error {
	gotKey, client, seq, ok := parseYCSBValue(raw)
	if !ok || gotKey != key {
		return fmt.Errorf("ycsb: key %d holds a value of %d bytes for key %d", key, len(raw), gotKey)
	}
	want := b.in.value(key, client, seq)
	if string(want) != string(raw) {
		return fmt.Errorf("ycsb: key %d body differs from what client %d wrote at %d", key, client, seq)
	}
	written := false
	for c := range b.last {
		if b.last[c][key] == 0 {
			continue
		}
		written = true
		if client == uint32(c) && seq+1 == b.last[c][key] {
			return nil
		}
	}
	if !written && client == loaderClient {
		return nil
	}
	return fmt.Errorf("ycsb: key %d holds client %d seq %d, not any client's last acked write", key, client, seq)
}

// countDocs counts a collection with an index-only COUNT aggregation.
func countDocs(ctx context.Context, cl *firestore.Client, collection string) (int64, error) {
	res, err := cl.Collection(collection).Query().NewAggregationQuery().WithCount("n").Get(ctx)
	if err != nil {
		return 0, err
	}
	n, _ := res["n"].(int64)
	return n, nil
}

// probeInputs samples every k-th generated write for the layer probes.
// No YCSB op is a query, so the query probes pair each sampled write with
// the one query its collection serves from an index: equality on the
// record field, matching the value just written.
func (b *ycsbBench) probeInputs(n int) probeInputs {
	in := probeInputs{collection: ycsbCollection}
	ops := b.in.ops[0]
	for i := 0; len(in.writes) < n; i++ {
		op := ops[(i*7)%len(ops)]
		v := b.in.value(op.key, 0, uint64(i))
		in.writes = append(in.writes, probeWrite{
			id:   ycsb.Key(int(op.key)),
			data: map[string]any{"field0": v},
			old:  map[string]any{"field0": b.in.value(op.key, loaderClient, 0)},
		})
		in.queries = append(in.queries, querySpec{collection: ycsbCollection, eq: []eqPred{{"field0", v}}, limit: 20})
	}
	return in
}
