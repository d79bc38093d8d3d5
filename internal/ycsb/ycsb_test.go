package ycsb

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// memClient is an in-memory Client.
type memClient struct {
	mu      sync.Mutex
	docs    map[string][]byte
	reads   int
	updates int
	delay   time.Duration
}

func newMemClient(delay time.Duration) *memClient {
	return &memClient{docs: map[string][]byte{}, delay: delay}
}

func (m *memClient) Read(_ context.Context, key string) error {
	if m.delay > 0 {
		time.Sleep(m.delay)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reads++
	return nil
}

func (m *memClient) Update(_ context.Context, key string, value []byte) error {
	if m.delay > 0 {
		time.Sleep(m.delay)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.updates++
	m.docs[key] = value
	return nil
}

func (m *memClient) Insert(ctx context.Context, key string, value []byte) error {
	return m.Update(ctx, key, value)
}

func TestKeyFormat(t *testing.T) {
	if Key(7) != "user0000000007" {
		t.Fatalf("Key = %q", Key(7))
	}
}

func TestUniformChooserRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	u := Uniform{N: 100}
	for i := 0; i < 10000; i++ {
		k := u.Next(rng)
		if k < 0 || k >= 100 {
			t.Fatalf("uniform out of range: %d", k)
		}
	}
}

func TestZipfianSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	z := NewZipfian(1000)
	counts := map[int]int{}
	const draws = 100000
	for i := 0; i < draws; i++ {
		k := z.Next(rng)
		if k < 0 || k >= 1000 {
			t.Fatalf("zipfian out of range: %d", k)
		}
		counts[k]++
	}
	// The hottest key must take a large share (theta=0.99 gives the top
	// key roughly 1/zeta(1000,0.99) ≈ 13% of traffic).
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if float64(max)/draws < 0.05 {
		t.Fatalf("hottest key share = %.3f, want skewed", float64(max)/draws)
	}
	// Uniform for contrast is flat.
	if len(counts) < 500 {
		t.Fatalf("zipfian covered only %d keys", len(counts))
	}
}

func TestLoadInsertsAll(t *testing.T) {
	cl := newMemClient(0)
	if err := Load(context.Background(), cl, WorkloadA, 500, 4); err != nil {
		t.Fatal(err)
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if len(cl.docs) != 500 {
		t.Fatalf("loaded %d docs, want 500", len(cl.docs))
	}
}

func TestRunMixAndRate(t *testing.T) {
	cl := newMemClient(0)
	res := Run(context.Background(), cl, WorkloadB, 500, RunOptions{
		Records:  100,
		Duration: 600 * time.Millisecond,
		Workers:  16,
		Seed:     42,
	})
	reads := res.Reads.Snapshot().Count
	total := reads + res.Updates.Snapshot().Count
	if total == 0 {
		t.Fatal("no measured operations")
	}
	readFrac := float64(reads) / float64(total)
	if readFrac < 0.85 || readFrac > 1.0 {
		t.Fatalf("workload B read fraction = %.2f, want ~0.95", readFrac)
	}
	if res.Errors != 0 {
		t.Fatalf("errors = %d", res.Errors)
	}
	if res.Achieved <= 0 {
		t.Fatal("achieved QPS not computed")
	}
}

func TestRunOpenLoopRecordsQueueing(t *testing.T) {
	// A slow client at an offered rate above its capacity must show
	// latencies near its service time, and achieved ops bounded by
	// capacity (ops are dropped at the pacer, not queued unboundedly).
	cl := newMemClient(5 * time.Millisecond)
	res := Run(context.Background(), cl, WorkloadA, 2000, RunOptions{
		Records:  10,
		Duration: 500 * time.Millisecond,
		Workers:  4, // capacity = 4/5ms = 800/s < 2000/s offered
		Seed:     1,
	})
	total := res.Reads.Snapshot().Count + res.Updates.Snapshot().Count
	if total == 0 {
		t.Fatal("no operations measured")
	}
	if p50 := res.Reads.Percentile(0.5); p50 < 4*time.Millisecond {
		t.Fatalf("p50 = %v, want >= service time", p50)
	}
}
