// Package ycsb implements the YCSB benchmark core used in the paper's
// scalability evaluation (§V-B1): workload A (50% reads, 50% updates) and
// workload B (95% reads, 5% updates), uniform and zipfian key choosers,
// and an open-loop driver that offers a target QPS and records read and
// update latencies separately — the data behind Figures 7 and 8.
package ycsb

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"firestore/internal/obs"
)

// Client is the system under test: one YCSB record per document.
type Client interface {
	Read(ctx context.Context, key string) error
	Update(ctx context.Context, key string, value []byte) error
	Insert(ctx context.Context, key string, value []byte) error
}

// Workload is a YCSB workload mix.
type Workload struct {
	Name       string
	ReadRatio  float64 // fraction of operations that are reads
	RecordSize int     // bytes per record value
}

// The paper's two workloads with its 900-byte single-field documents.
var (
	WorkloadA = Workload{Name: "A", ReadRatio: 0.50, RecordSize: 900}
	WorkloadB = Workload{Name: "B", ReadRatio: 0.95, RecordSize: 900}
)

// Uniform picks keys uniformly from [0, N).
type Uniform struct{ N int }

// Next picks a record index.
func (u Uniform) Next(rng *rand.Rand) int { return rng.Intn(u.N) }

// Zipfian picks keys with the standard YCSB zipfian skew
// (theta = 0.99), scrambled across the key space.
type Zipfian struct {
	n     int
	alpha float64
	zetan float64
	eta   float64
	theta float64
}

// NewZipfian precomputes the zipfian distribution over n keys.
func NewZipfian(n int) *Zipfian {
	const theta = 0.99
	z := &Zipfian{n: n, theta: theta}
	z.zetan = zeta(n, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - zeta(2, theta)/z.zetan)
	return z
}

func zeta(n int, theta float64) float64 {
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next picks a record index (Gray et al.'s algorithm), scrambling the
// rank so hot keys spread over the key space.
func (z *Zipfian) Next(rng *rand.Rand) int {
	u := rng.Float64()
	uz := u * z.zetan
	var rank int
	switch {
	case uz < 1:
		rank = 0
	case uz < 1+math.Pow(0.5, z.theta):
		rank = 1
	default:
		rank = int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	}
	if rank >= z.n {
		rank = z.n - 1
	}
	// FNV scramble.
	h := uint64(rank) * 0xc4ceb9fe1a85ec53
	return int(h % uint64(z.n))
}

// Key renders record i as its document key.
func Key(i int) string { return fmt.Sprintf("user%010d", i) }

// Load inserts n records through cl using the workload's record size.
func Load(ctx context.Context, cl Client, w Workload, n, parallelism int) error {
	if parallelism <= 0 {
		parallelism = 8
	}
	value := make([]byte, w.RecordSize)
	errs := make(chan error, parallelism)
	var wg sync.WaitGroup
	for p := 0; p < parallelism; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := p; i < n; i += parallelism {
				if err := cl.Insert(ctx, Key(i), value); err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
			}
		}(p)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// LoadResult summarizes a load phase: how many records landed, how many
// failed, and the wall-clock ingest rate.
type LoadResult struct {
	Docs    int
	Errors  int
	Elapsed time.Duration
}

// DocsPerSec is the achieved ingest throughput.
func (r LoadResult) DocsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Docs-r.Errors) / r.Elapsed.Seconds()
}

// LoadTimed is Load with timing and per-record error accounting, the
// sequential baseline for the bulk-load comparison. parallelism <= 1
// inserts records strictly one at a time.
func LoadTimed(ctx context.Context, cl Client, w Workload, n, parallelism int) LoadResult {
	if parallelism <= 0 {
		parallelism = 1
	}
	value := make([]byte, w.RecordSize)
	start := time.Now()
	var errCount int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	for p := 0; p < parallelism; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := p; i < n; i += parallelism {
				if err := cl.Insert(ctx, Key(i), value); err != nil {
					mu.Lock()
					errCount++
					mu.Unlock()
				}
			}
		}(p)
	}
	wg.Wait()
	return LoadResult{Docs: n, Errors: int(errCount), Elapsed: time.Since(start)}
}

// BulkLoader is an asynchronous ingest pipeline (firestore.BulkWriter
// behind an adapter): Insert enqueues a record without blocking on the
// network and returns a wait function resolving that record's own
// outcome; Flush drains everything enqueued so far.
type BulkLoader interface {
	Insert(ctx context.Context, key string, value []byte) (wait func() error, err error)
	Flush()
}

// LoadBulk streams n records of w through bl and waits for every
// per-record outcome, so errors are attributed individually rather than
// aborting the load.
func LoadBulk(ctx context.Context, bl BulkLoader, w Workload, n int) LoadResult {
	value := make([]byte, w.RecordSize)
	start := time.Now()
	waits := make([]func() error, 0, n)
	errCount := 0
	for i := 0; i < n; i++ {
		wait, err := bl.Insert(ctx, Key(i), value)
		if err != nil {
			errCount++
			continue
		}
		waits = append(waits, wait)
	}
	bl.Flush()
	for _, wait := range waits {
		if err := wait(); err != nil {
			errCount++
		}
	}
	return LoadResult{Docs: n, Errors: errCount, Elapsed: time.Since(start)}
}

// Result carries one run's latency distributions.
type Result struct {
	Workload  Workload
	TargetQPS int
	Achieved  float64
	Reads     *obs.Histogram
	Updates   *obs.Histogram
	Errors    int64
}

// RunOptions tunes a Run.
type RunOptions struct {
	Records  int
	Duration time.Duration
	Workers  int
	Seed     int64
}

// warmFraction of a run's duration is discarded before measuring
// ("measuring the last 5 minutes to allow the system to stabilize").
const warmFraction = 0.5

// Run offers targetQPS of workload w against cl in an open loop: a pacer
// releases operations on schedule regardless of completions, so queueing
// delay shows up as latency (not as reduced throughput).
func Run(ctx context.Context, cl Client, w Workload, targetQPS int, opts RunOptions) *Result {
	if opts.Records <= 0 {
		opts.Records = 1000
	}
	if opts.Duration <= 0 {
		opts.Duration = 2 * time.Second
	}
	if opts.Workers <= 0 {
		opts.Workers = 64
	}
	res := &Result{
		Workload:  w,
		TargetQPS: targetQPS,
		Reads:     &obs.Histogram{},
		Updates:   &obs.Histogram{},
	}
	value := make([]byte, w.RecordSize)
	interval := time.Second / time.Duration(targetQPS)
	warmUntil := time.Now().Add(time.Duration(float64(opts.Duration) * warmFraction))
	deadline := time.Now().Add(opts.Duration)

	tokens := make(chan struct{}, targetQPS) // release bucket
	var wg sync.WaitGroup
	var mu sync.Mutex
	var measured int64

	// Pacer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for time.Now().Before(deadline) {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				select {
				case tokens <- struct{}{}:
				default: // saturated: drop the slot, the system is behind
				}
			}
		}
		close(tokens)
	}()

	for i := 0; i < opts.Workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(opts.Seed + int64(i)*7919 + 1))
			for range tokens {
				key := Key(Uniform{N: opts.Records}.Next(rng))
				isRead := rng.Float64() < w.ReadRatio
				start := time.Now()
				var err error
				if isRead {
					err = cl.Read(ctx, key)
				} else {
					err = cl.Update(ctx, key, value)
				}
				elapsed := time.Since(start)
				if start.Before(warmUntil) {
					continue
				}
				mu.Lock()
				measured++
				mu.Unlock()
				if err != nil {
					mu.Lock()
					res.Errors++
					mu.Unlock()
					continue
				}
				if isRead {
					res.Reads.Record(elapsed)
				} else {
					res.Updates.Record(elapsed)
				}
			}
		}(i)
	}
	wg.Wait()
	window := float64(opts.Duration) * (1 - warmFraction)
	res.Achieved = float64(measured) / (window / float64(time.Second))
	return res
}
