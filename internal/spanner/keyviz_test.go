package spanner

import (
	"context"
	"fmt"
	"testing"
	"time"

	"firestore/internal/keyviz"
	"firestore/internal/truetime"
)

// TestSplitAttribution is the keyspace-telemetry acceptance test: a
// skewed workload drives the load-split path, the split event carries
// the triggering hot cell (tablet, load crossing the threshold), and
// after the split the heat redistributes across both children.
func TestSplitAttribution(t *testing.T) {
	const threshold = 50
	clock := truetime.NewSystem(10 * time.Microsecond)
	kv := keyviz.New(clock)
	db := New(Config{
		Clock:          clock,
		SplitThreshold: threshold,
		KeyViz:         kv,
	})
	for i := 0; i < 20; i++ {
		put(t, db, fmt.Sprintf("key-%04d", i), "v")
	}

	// Skewed reads hammer the low half of the keyspace until the tablet's
	// load window crosses the threshold; the trailing put gives maybeSplit
	// (called after commits) its chance to act.
	ctx := context.Background()
	deadline := time.Now().Add(10 * time.Second)
	for db.Stats().Splits == 0 && time.Now().Before(deadline) {
		for i := 0; i < 10; i++ {
			ts := db.StrongReadTimestamp()
			if _, _, _, err := db.SnapshotGet(ctx, []byte(fmt.Sprintf("key-%04d", i)), ts); err != nil {
				t.Fatal(err)
			}
		}
		put(t, db, "key-0000", "hot")
	}
	if db.Stats().Splits == 0 {
		t.Fatal("skewed workload never split the tablet")
	}

	var split *keyviz.Event
	for _, ev := range kv.Events() {
		if ev.Site == keyviz.EvSplit {
			ev := ev
			split = &ev
			break
		}
	}
	if split == nil {
		t.Fatal("split happened but no keyviz split event recorded")
	}
	if split.Detail != "hot" {
		t.Errorf("split trigger = %q, want \"hot\"", split.Detail)
	}
	if split.HeatBefore <= threshold {
		t.Errorf("split HeatBefore = %d, want > threshold %d", split.HeatBefore, threshold)
	}
	if split.HeatAfter != split.HeatBefore/2 {
		t.Errorf("split HeatAfter = %d, want %d", split.HeatAfter, split.HeatBefore/2)
	}
	if split.Peer == split.Shard {
		t.Errorf("split Peer = Shard = %d, want distinct child", split.Peer)
	}
	if split.Key == "" {
		t.Error("split event missing the split key")
	}

	// Collector fidelity: the hottest tablet in the window covering the
	// split must be the tablet the split decision named.
	if shard, ops, ok := kv.TopShard(keyviz.SrcTablet, split.TS); !ok || shard != split.Shard {
		t.Errorf("TopShard at split = (%d, %d ops, %v), want shard %d", shard, ops, ok, split.Shard)
	}

	// Post-split, traffic to both halves lands on both children: the low
	// keys stay on the source tablet, the high keys moved to the peer.
	for i := 0; i < 20; i++ {
		ts := db.StrongReadTimestamp()
		if _, _, _, err := db.SnapshotGet(ctx, []byte(fmt.Sprintf("key-%04d", i%20)), ts); err != nil {
			t.Fatal(err)
		}
	}
	if heat := kv.Heat(keyviz.SrcTablet, split.Shard); heat == 0 {
		t.Errorf("no post-split heat on source tablet %d", split.Shard)
	}
	if heat := kv.Heat(keyviz.SrcTablet, split.Peer); heat == 0 {
		t.Errorf("no post-split heat on child tablet %d", split.Peer)
	}
}
