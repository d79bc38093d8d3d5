package truetime

import (
	"sync"
	"testing"
	"time"
)

func TestSystemNowContainsUncertainty(t *testing.T) {
	c := NewSystem(time.Millisecond)
	iv := c.Now()
	if got := iv.Latest - iv.Earliest; got != Timestamp(2*time.Millisecond) {
		t.Fatalf("interval width = %d, want %d", got, 2*time.Millisecond)
	}
}

func TestSystemNowMonotonic(t *testing.T) {
	c := NewSystem(100 * time.Microsecond)
	prev := c.Now()
	for i := 0; i < 10000; i++ {
		cur := c.Now()
		if !cur.Earliest.After(prev.Earliest) {
			t.Fatalf("iteration %d: midpoint not strictly increasing: %d then %d", i, prev.Earliest, cur.Earliest)
		}
		prev = cur
	}
}

func TestSystemNowMonotonicConcurrent(t *testing.T) {
	c := NewSystem(0)
	const workers = 8
	var wg sync.WaitGroup
	results := make([][]Timestamp, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				results[w] = append(results[w], c.Now().Earliest)
			}
		}(w)
	}
	wg.Wait()
	for w, seq := range results {
		for i := 1; i < len(seq); i++ {
			if seq[i] <= seq[i-1] {
				t.Fatalf("worker %d saw non-increasing timestamps at %d", w, i)
			}
		}
	}
}

func TestSystemAfter(t *testing.T) {
	c := NewSystem(time.Millisecond)
	past := c.Now().Earliest - Timestamp(10*time.Millisecond)
	future := c.Now().Latest + Timestamp(10*time.Millisecond)
	if !c.After(past) {
		t.Error("After(past) = false, want true")
	}
	if c.After(future) {
		t.Error("After(future) = true, want false")
	}
}

func TestSystemCommitWait(t *testing.T) {
	eps := 2 * time.Millisecond
	c := NewSystem(eps)
	ts := c.Now().Latest // worst case: the latest possible "now"
	start := time.Now()
	c.CommitWait(ts)
	if !c.After(ts) {
		t.Fatal("After(ts) = false after CommitWait")
	}
	// Commit wait must take roughly 2*epsilon in the worst case but must
	// not block unreasonably long.
	if elapsed := time.Since(start); elapsed > 100*eps {
		t.Fatalf("CommitWait took %v, expected around %v", elapsed, 2*eps)
	}
}

func TestSystemNegativeEpsilonClamped(t *testing.T) {
	c := NewSystem(-time.Second)
	if c.Epsilon() != 0 {
		t.Fatalf("Epsilon = %v, want 0", c.Epsilon())
	}
}

func TestTimestampArithmetic(t *testing.T) {
	ts := Timestamp(1000)
	if got := ts.Add(time.Nanosecond * 24); got != 1024 {
		t.Errorf("Add = %d, want 1024", got)
	}
	if got := Timestamp(5000).Sub(ts); got != 4000*time.Nanosecond {
		t.Errorf("Sub = %v, want 4000ns", got)
	}
	if !ts.After(999) || ts.After(1000) {
		t.Error("After misbehaves")
	}
}

func TestManualClock(t *testing.T) {
	m := NewManual(1000, 10)
	iv := m.Now()
	if iv.Earliest != 990 || iv.Latest != 1010 {
		t.Fatalf("Now = %+v, want [990,1010]", iv)
	}
	if m.After(990) {
		t.Error("After(990) should be false: 990 is not definitely past")
	}
	m.Advance(100)
	if !m.After(1000) {
		t.Error("After(1000) should be true after Advance(100)")
	}
}

func TestManualSetNeverGoesBack(t *testing.T) {
	m := NewManual(1000, 0)
	m.Set(500)
	if got := m.Now().Earliest; got != 1000 {
		t.Fatalf("Set moved clock backwards to %d", got)
	}
	m.Set(2000)
	if got := m.Now().Earliest; got != 2000 {
		t.Fatalf("Set(2000) gave %d", got)
	}
}

func TestManualCommitWaitUnblocks(t *testing.T) {
	m := NewManual(0, 5)
	done := make(chan struct{})
	go func() {
		m.CommitWait(100)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("CommitWait returned before time advanced")
	case <-time.After(10 * time.Millisecond):
	}
	m.Advance(200)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("CommitWait did not unblock after Advance")
	}
}
