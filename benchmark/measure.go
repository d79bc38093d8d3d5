package main

import (
	"context"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// window is what one timed interval of a workload yields. Latencies are
// kept as raw samples (slices preallocated before timing, so recording
// one costs no allocation) and reduced to percentiles afterwards.
type window struct {
	elapsed   time.Duration
	attempted int
	failed    int
	// read holds the workload's read-side latencies (Get, query, or
	// notification), write its write latencies; failed ops are in neither.
	read, write []time.Duration
	// late is how far behind schedule the open-loop generator sent each
	// request, afterAck how long after a write's commit ack its last
	// listener had it (both empty for closed loops).
	late, afterAck []time.Duration
	// lost counts acknowledged writes whose notification never reached
	// some listener (open loop only).
	lost int

	cpu        time.Duration // process user+sys over the window
	allocs     uint64        // heap objects allocated over the window
	allocBytes uint64
}

func (w *window) ok() int { return w.attempted - w.failed }

// resources brackets fn with process-wide CPU and allocation readings.
// Both include the load generator itself: it is the same on every commit.
func resources(w *window, fn func()) {
	var m0, m1 runtime.MemStats
	runtime.GC() // start every window from a collected heap
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := time.Now()
	fn()
	w.elapsed = time.Since(t0)
	w.cpu = cpuTime() - c0
	runtime.ReadMemStats(&m1)
	w.allocs = m1.Mallocs - m0.Mallocs
	w.allocBytes = m1.TotalAlloc - m0.TotalAlloc
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// opKind says which latency series an op belongs to.
type opKind uint8

const (
	opRead opKind = iota
	opWrite
)

// clientFn executes a client's seq-th generated op.
type clientFn func(ctx context.Context, client, seq int) (opKind, error)

// closedLoop drives clients goroutines for d: each sends its next
// generated op only after the previous one completed. next[c] is where
// client c resumes in its sequence and is advanced in place, so warm-up,
// measured window and traced pass walk one sequence end to end.
func closedLoop(ctx context.Context, d time.Duration, next []int, do clientFn) *window {
	type perClient struct {
		read, write []time.Duration
		attempted   int
		failed      int
	}
	per := make([]perClient, len(next))
	for c := range per {
		per[c].read = make([]time.Duration, 0, latencyCap)
		per[c].write = make([]time.Duration, 0, latencyCap)
	}
	w := &window{}
	resources(w, func() {
		deadline := time.Now().Add(d)
		var wg sync.WaitGroup
		for c := range next {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				p := &per[c]
				for seq := next[c]; ; seq++ {
					t0 := time.Now()
					if !t0.Before(deadline) || ctx.Err() != nil {
						next[c] = seq
						return
					}
					kind, err := do(request(ctx, c, seq), c, seq)
					lat := time.Since(t0)
					p.attempted++
					switch {
					case err != nil:
						p.failed++
					case kind == opRead:
						p.read = append(p.read, lat)
					default:
						p.write = append(p.write, lat)
					}
				}
			}(c)
		}
		wg.Wait()
	})
	for c := range per {
		w.attempted += per[c].attempted
		w.failed += per[c].failed
		w.read = append(w.read, per[c].read...)
		w.write = append(w.write, per[c].write...)
	}
	return w
}

// pace is the open-loop generator: request i is due at start+i*interval
// whether or not earlier requests have finished, and do is told the due
// time so latency is taken from when the request should have been sent —
// a stall therefore shows up in the requests queued behind it. It returns
// how late each request was actually issued.
func pace(ctx context.Context, n int, interval time.Duration, do func(i int, due time.Time)) []time.Duration {
	late := make([]time.Duration, 0, n)
	start := time.Now()
	for i := 0; i < n && ctx.Err() == nil; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		late = append(late, time.Since(due))
		do(i, due)
	}
	return late
}

// percentile returns the p-quantile (0..1) of sorted by nearest rank.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// tail is the "p99" of a series: the highest percentile with at least ten
// samples beyond it, capped at 0.99. With 1000+ samples that is p99;
// below that it says which percentile it could support.
func tail(sorted []time.Duration) (time.Duration, float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	p := 0.99
	if n < 1000 {
		p = math.Max(0.5, 1-10/float64(n))
	}
	return percentile(sorted, p), p
}

func mean(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	var sum time.Duration
	for _, v := range d {
		sum += v
	}
	return sum / time.Duration(len(d))
}

func sortDurations(d []time.Duration) []time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

func medianFloat(v []float64) float64 {
	median, _, _ := quartiles(v)
	return median
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
