package obs

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// Bucket layout: log-linear, 2^subBits linear sub-buckets per power of
// two, so a bucket is at most 1/16 of its lower bound wide and a
// percentile reported at the bucket midpoint is within ~3% of the true
// value. Values below 2^subBits ns are exact; values at or above
// 2^maxBits ns (~37 min) share the open-ended top bucket, which reports
// the observed maximum.
const (
	subBits    = 4
	subCount   = 1 << subBits
	maxBits    = 41
	numBuckets = (maxBits - subBits + 1) * subCount
)

// bucketOf maps a non-negative duration to its bucket with one
// bits.Len64 and a shift — no floating point on the record path.
func bucketOf(v uint64) int {
	if v < subCount {
		return int(v)
	}
	exp := bits.Len64(v) - subBits - 1
	if i := exp<<subBits + int(v>>exp); i < numBuckets {
		return i
	}
	return numBuckets - 1
}

// bucketMid is the midpoint of bucket i's value range.
func bucketMid(i int) time.Duration {
	if i < 2*subCount {
		return time.Duration(i)
	}
	exp := i>>subBits - 1
	lo := uint64(i&(subCount-1)|subCount) << exp
	return time.Duration(lo + 1<<exp/2)
}

// Histogram is a lock-free latency histogram: Record is a handful of
// atomic adds, so every layer can time itself on the hot path. The zero
// value is ready to use.
//
// Record publishes min and max before the bucket count, and Snapshot
// reads the buckets before them and derives everything else — count,
// mean, percentiles — from that one copy, so no field of a snapshot can
// describe a different population than another and
// Min <= P50 <= P95 <= P99 <= Max always holds, with no lock. The price
// is that Mean is computed from bucket midpoints: within ~3%, not exact.
type Histogram struct {
	buckets [numBuckets]atomic.Uint64
	// min is stored as value+1 so that zero means "no observation yet".
	min atomic.Int64
	max atomic.Int64
}

// Record adds one observation; negative durations count as zero.
func (h *Histogram) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	v := int64(d)
	for cur := h.min.Load(); cur == 0 || v+1 < cur; cur = h.min.Load() {
		if h.min.CompareAndSwap(cur, v+1) {
			break
		}
	}
	for cur := h.max.Load(); v > cur; cur = h.max.Load() {
		if h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bucketOf(uint64(v))].Add(1)
}

// Reset clears all observations. It is not atomic with respect to
// concurrent Records (a racing observation may survive half-applied);
// callers reset between phases, not under load.
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.min.Store(0)
	h.max.Store(0)
}

// Summary is a point-in-time percentile summary.
type Summary struct {
	Count uint64
	Mean  time.Duration
	Min   time.Duration
	Max   time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v", s.Count, s.Mean, s.P50, s.P95, s.P99)
}

// histView is one copy of the buckets plus the bounds read after it;
// every reader derives its answer from a single view.
type histView struct {
	buckets  [numBuckets]uint64
	count    uint64
	total    float64 // sum of bucket midpoints, for the mean
	min, max time.Duration
}

func (h *Histogram) view() (v histView) {
	for i := range h.buckets {
		if c := h.buckets[i].Load(); c > 0 {
			v.buckets[i] = c
			v.count += c
			v.total += float64(c) * float64(bucketMid(i))
		}
	}
	if v.count > 0 {
		v.min = time.Duration(h.min.Load() - 1)
		v.max = time.Duration(h.max.Load())
	}
	return v
}

// percentile returns the latency at quantile q, clamped to [0, 1]: the
// midpoint of the bucket holding the q-th observation, kept within the
// observed [min, max].
func (v *histView) percentile(q float64) time.Duration {
	if v.count == 0 {
		return 0
	}
	target := uint64(max(q, 0) * float64(v.count))
	if target >= v.count {
		return v.max
	}
	var cum uint64
	for i, c := range v.buckets {
		if cum += c; cum > target {
			if i == numBuckets-1 {
				return v.max // top bucket is open-ended
			}
			return min(max(bucketMid(i), v.min), v.max)
		}
	}
	return v.max
}

// Percentile returns the latency at quantile q in [0, 1] (e.g. 0.5,
// 0.99), or 0 with no observations.
func (h *Histogram) Percentile(q float64) time.Duration {
	v := h.view()
	return v.percentile(q)
}

// Snapshot returns count, mean, min/max, p50, p95, p99 from one copy of
// the buckets (see the consistency contract on Histogram).
func (h *Histogram) Snapshot() Summary {
	v := h.view()
	s := Summary{
		Count: v.count,
		Min:   v.min,
		Max:   v.max,
		P50:   v.percentile(0.50),
		P95:   v.percentile(0.95),
		P99:   v.percentile(0.99),
	}
	if v.count > 0 {
		s.Mean = min(max(time.Duration(v.total/float64(v.count)), v.min), v.max)
	}
	return s
}
