package obs

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if s := h.Snapshot(); s != (Summary{}) || h.Percentile(0.5) != 0 {
		t.Fatalf("zero histogram not empty: %+v", s)
	}
	h.Record(10 * time.Millisecond)
	h.Record(20 * time.Millisecond)
	h.Record(30 * time.Millisecond)
	s := h.Snapshot()
	if s.Count != 3 || s.Min != 10*time.Millisecond || s.Max != 30*time.Millisecond {
		t.Fatalf("Snapshot = %+v", s)
	}
	if math.Abs(float64(s.Mean-20*time.Millisecond)) > 0.03*float64(20*time.Millisecond) {
		t.Fatalf("Mean = %v, want 20ms within 3%%", s.Mean)
	}
	if s.String() == "" {
		t.Fatal("empty summary string")
	}
}

// TestBucketLayout pins the log-linear index: buckets tile the value
// range without gaps, and every value lies within 1/32 of its bucket's
// midpoint.
func TestBucketLayout(t *testing.T) {
	prev := -1
	for v := uint64(0); v < 1<<12; v++ {
		i := bucketOf(v)
		if i != prev && i != prev+1 {
			t.Fatalf("bucketOf(%d) = %d after %d: gap", v, i, prev)
		}
		prev = i
	}
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 10000; n++ {
		v := uint64(rng.Int63n(1 << 40))
		mid := float64(bucketMid(bucketOf(v)))
		if math.Abs(mid-float64(v)) > float64(v)/32+1 {
			t.Fatalf("value %d -> bucket %d mid %v: more than 1/32 off", v, bucketOf(v), mid)
		}
	}
	if got := bucketOf(math.MaxInt64); got != numBuckets-1 {
		t.Fatalf("bucketOf(max) = %d, want top bucket %d", got, numBuckets-1)
	}
}

func TestHistogramPercentileAccuracy(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(1))
	var samples []time.Duration
	for i := 0; i < 10000; i++ {
		d := time.Duration(rng.Intn(100000)) * time.Microsecond
		samples = append(samples, d)
		h.Record(d)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact := samples[int(q*float64(len(samples)))]
		got := h.Percentile(q)
		// Buckets are ~6% wide; allow 10% relative error.
		if math.Abs(float64(got-exact)) > 0.10*float64(exact)+float64(10*time.Microsecond) {
			t.Errorf("P%v = %v, exact %v", q*100, got, exact)
		}
	}
}

func TestHistogramPercentileBounds(t *testing.T) {
	var h Histogram
	h.Record(time.Millisecond)
	for _, q := range []float64{0, 1, -5, 7} {
		if got := h.Percentile(q); got != time.Millisecond {
			t.Errorf("Percentile(%v) = %v, want 1ms", q, got)
		}
	}
}

func TestHistogramExtremes(t *testing.T) {
	var h Histogram
	h.Record(-time.Second)  // negative clamps to zero
	h.Record(0)             // exact bottom bucket
	h.Record(2 * time.Hour) // beyond the top bucket
	s := h.Snapshot()
	if s.Count != 3 || s.Min != 0 {
		t.Fatalf("extremes not recorded: %+v", s)
	}
	if s.P99 != 2*time.Hour {
		t.Fatalf("max clamp = %v", s.P99)
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Record(time.Second)
	h.Reset()
	if h.Snapshot() != (Summary{}) || h.Percentile(0.5) != 0 {
		t.Fatal("Reset did not clear")
	}
	h.Record(time.Millisecond)
	if s := h.Snapshot(); s.Count != 1 || s.Min != time.Millisecond || s.Max != time.Millisecond {
		t.Fatalf("after Reset: %+v", s)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Record(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != 8000 || s.Mean != time.Millisecond {
		t.Fatalf("Snapshot = %+v", s)
	}
}

// TestSnapshotConsistentUnderConcurrency pins the lock-free "one view"
// contract under -race: while 8 writers record, every scrape's Count is
// exactly the sum of the buckets its percentiles came from, percentiles
// are ordered and bounded by Min/Max, Count never goes backwards, and
// Mean is the mean of that same population. A snapshot that read count, bounds and
// buckets at different instants (the torn read PR 3 fixed with a mutex)
// breaks one of these.
func TestSnapshotConsistentUnderConcurrency(t *testing.T) {
	var h Histogram
	const writers, perWriter = 8, 20000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWriter; i++ {
				h.Record(time.Duration(rng.Int63n(int64(time.Second))))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var last uint64
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false // one final scrape of the settled state
		default:
		}
		v := h.view()
		var sum uint64
		for _, c := range v.buckets {
			sum += c
		}
		if sum != v.count {
			t.Fatalf("view count %d != sum of buckets %d", v.count, sum)
		}
		s := h.Snapshot()
		if s.Count < last {
			t.Fatalf("Count went backwards: %d after %d", s.Count, last)
		}
		last = s.Count
		if s.Count == 0 {
			continue
		}
		if !(s.Min <= s.P50 && s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max) {
			t.Fatalf("torn snapshot: %+v", s)
		}
		// Uniform on [0, 1s): a mean computed over a different population
		// than Count would show. Only the settled scrape can be held to
		// it: the buckets are copied in index order, so a scraper that is
		// preempted mid-copy (2 cores, -race) sees the higher buckets with
		// tens of thousands more samples than the lower ones.
		if !scraping && (s.Mean < 400*time.Millisecond || s.Mean > 600*time.Millisecond) {
			t.Fatalf("mean inconsistent with count: %+v", s)
		}
	}
	if last != writers*perWriter {
		t.Fatalf("final Count = %d, want %d", last, writers*perWriter)
	}
}

func TestPercentileMonotonic(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var h Histogram
		for i := 0; i < 100; i++ {
			h.Record(time.Duration(rng.Intn(1e9)))
		}
		prev := time.Duration(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			p := h.Percentile(q)
			if p < prev {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	var h Histogram
	for i := 0; i < b.N; i++ {
		h.Record(time.Duration(i))
	}
}
