package storage

import (
	"context"
	"fmt"
	"testing"
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
