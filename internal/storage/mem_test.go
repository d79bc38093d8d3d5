package storage

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"firestore/internal/truetime"
)

// TestMemScanAllocs: a warm Mem.Scan stages its rows in a pooled chunk
// that keeps the capacity it grew to. A fresh slice per call, re-grown
// at every doubling of the chunk (32, 64, ... 512), made a 500-entry
// COUNT allocate 1.8 + 3.6 + 7 + 14 + 28 KB to return one number.
func TestMemScanAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops entries under -race; allocation counts mean nothing")
	}
	e := NewMem()
	var writes []Write
	for i := 0; i < 500; i++ {
		writes = append(writes, Write{Key: []byte(fmt.Sprintf("k%04d", i)), Value: []byte("v")})
	}
	if err := e.Apply(context.Background(), writes, 1); err != nil {
		t.Fatal(err)
	}
	rows := 0
	scan := func() { e.Scan(nil, nil, 2, false, func(Row) bool { rows++; return true }) }
	scan()
	got := testing.AllocsPerRun(100, scan)
	if rows != 500*102 {
		t.Fatalf("scans saw %d rows, want %d", rows, 500*102)
	}
	if got > 2 {
		t.Errorf("a warm 500-row Mem.Scan allocates %.0f times, want <= 2", got)
	}
}

// TestMemApplyAllocs: a chain lives by value in its B-tree item, so a
// warm Mem applies a YCSB-shaped update — the entity's new version, two
// index rows tombstoned and two new index rows — with one allocation per
// new key (its versions array) and none per existing chain. The rows it
// tombstones have history, like an index row whose value comes back. A
// second pass tombstones rows that hold one version, as the YCSB rig does
// on every update: a new chain has room for that, so it allocates
// nothing (it regrew the array once per row until it did).
func TestMemApplyAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates; allocation counts mean nothing")
	}
	const runs = 100
	rng := rand.New(rand.NewSource(42))
	indexKey := func() []byte { return []byte(fmt.Sprintf("I/ycsb/field0/%016x", rng.Uint64())) }
	e := NewMem()
	ctx := context.Background()
	var load []Write
	for i := 0; i < 10000; i++ {
		load = append(load, Write{Key: indexKey(), Value: []byte("v")})
	}
	// Batch b creates fresh[2b], fresh[2b+1] and tombstones old[2b],
	// old[2b+1], each written live, dead and live again below.
	entity := []byte("E/ycsb/user00000042")
	const warm = 2 * GCHorizon
	fresh := make([][]byte, 2*(warm+runs+1))
	old := make([][]byte, len(fresh))
	for i := range fresh {
		fresh[i], old[i] = indexKey(), indexKey()
		load = append(load, Write{Key: old[i], Value: entity})
	}
	for ts := truetime.Timestamp(1); ts <= 3; ts++ {
		if err := e.Apply(ctx, load, ts); err != nil {
			t.Fatal(err)
		}
		for i := range load {
			load[i].Delete = ts == 1
		}
	}
	batches := make([][]Write, warm+runs+1)
	for b := range batches {
		batches[b] = []Write{
			{Key: entity, Value: []byte("doc")},
			{Key: old[2*b], Delete: true}, {Key: old[2*b+1], Delete: true},
			{Key: fresh[2*b], Value: entity}, {Key: fresh[2*b+1], Value: entity},
		}
	}
	b := 0
	apply := func() {
		// A second apart, so the entity's chain is trimmed to GCHorizon.
		if err := e.Apply(ctx, batches[b], truetime.Timestamp(b+4)*truetime.Timestamp(time.Second)); err != nil {
			t.Fatal(err)
		}
		b++
	}
	for b < warm {
		apply()
	}
	got := testing.AllocsPerRun(runs, apply)
	if b != len(batches) {
		t.Fatalf("applied %d batches, want %d", b, len(batches))
	}
	if v, _, ok := e.Get(fresh[2*b-2], truetime.Max); !ok || string(v) != string(entity) {
		t.Fatalf("a new index row reads %q, %v", v, ok)
	}
	if _, _, ok := e.Get(old[2*b-2], truetime.Max); ok {
		t.Fatal("a tombstoned index row still reads")
	}
	if got > 2 {
		t.Errorf("a warm YCSB-shaped Mem.Apply allocates %.0f times, want <= 2 (one per new key)", got)
	}

	// Rows written once, then tombstoned two per batch.
	once := make([]Write, 2*(runs+1))
	for i := range once {
		once[i] = Write{Key: indexKey(), Value: entity}
	}
	ts := truetime.Timestamp(b+4) * truetime.Timestamp(time.Second)
	if err := e.Apply(ctx, once, ts); err != nil {
		t.Fatal(err)
	}
	for i := range batches[:runs+1] {
		batches[i] = []Write{{Key: entity, Value: []byte("doc")}, {Key: once[2*i].Key, Delete: true}, {Key: once[2*i+1].Key, Delete: true}}
	}
	b = 0
	got = testing.AllocsPerRun(runs, func() {
		ts += truetime.Timestamp(time.Second)
		if err := e.Apply(ctx, batches[b], ts); err != nil {
			t.Fatal(err)
		}
		b++
	})
	if _, _, ok := e.Get(once[2*b-1].Key, truetime.Max); ok {
		t.Fatal("a tombstoned one-version row still reads")
	}
	if got > 0 {
		t.Errorf("tombstoning rows of one version allocates %.0f times, want 0", got)
	}
}
