package storage

import (
	"context"
	"testing"
	"time"

	"firestore/internal/truetime"
)

// TestMemHotKeyKeepsRecentVersions: a key rewritten far more than
// GCHorizon times within GCRetention must stay readable at every
// timestamp inside the window (a strong read picks its timestamp, is
// descheduled while a hot key takes a burst of writes, then reads);
// versions superseded longer ago than the window are trimmed to the
// count again.
func TestMemHotKeyKeepsRecentVersions(t *testing.T) {
	e := NewMem()
	ctx := context.Background()
	key := []byte("hot")
	base := truetime.Timestamp(time.Hour)
	step := GCRetention / 100
	const writes = 10 * GCHorizon
	for i := 0; i < writes; i++ {
		if err := e.Apply(ctx, []Write{{Key: key, Value: []byte{byte(i)}}}, base.Add(time.Duration(i)*step)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < writes; i++ {
		v, vts, ok := e.Get(key, base.Add(time.Duration(i)*step+step/2))
		if !ok || v[0] != byte(i) || vts != base.Add(time.Duration(i)*step) {
			t.Fatalf("read between write %d and %d: got %v @%d ok=%v", i, i+1, v, vts, ok)
		}
	}
	// One write well past the window releases everything but the count.
	late := base.Add(writes*step + 2*GCRetention)
	if err := e.Apply(ctx, []Write{{Key: key, Value: []byte{0xff}}}, late); err != nil {
		t.Fatal(err)
	}
	var n int
	e.AscendChains(nil, nil, func(c Chain) bool { n = len(c.Versions); return true })
	if n != GCHorizon {
		t.Fatalf("chain holds %d versions after the window passed, want %d", n, GCHorizon)
	}
	if _, _, ok := e.Get(key, base); ok {
		t.Fatal("version older than both the count and the window still readable")
	}
}
