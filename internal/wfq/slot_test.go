package wfq

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A task body runs on its submitter's goroutine, so a panic in it
// reaches the submitter, and the slot it held is freed on the way out.
func TestPanickingTaskReleasesItsSlot(t *testing.T) {
	s := New(Config{Workers: 1}) // not closed: Close would wait on a leaked slot
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want the task's panic", r)
			}
		}()
		s.Submit(context.Background(), "db", 0, func() { panic("boom") })
	}()
	done := make(chan error, 1)
	go func() { done <- s.Submit(context.Background(), "db", 0, func() {}) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("the panicking task kept the only slot")
	}
}

// A ctx cancelled while the body runs does not release the caller early:
// Submit returns after its task, and reports that it ran.
func TestSubmitReturnsAfterItsTask(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{})
	go func() { <-started; cancel() }()
	var finished atomic.Bool
	err := s.Submit(ctx, "db", 0, func() {
		close(started)
		<-ctx.Done()
		time.Sleep(10 * time.Millisecond)
		finished.Store(true)
	})
	if !finished.Load() {
		t.Fatal("Submit returned before its task did")
	}
	if err != nil {
		t.Fatalf("Submit = %v, want nil: the task ran", err)
	}
}

// An uncontended Submit takes a free slot without queueing anything: no
// task, no channel, and a body that does not escape.
func TestSubmitAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts mean nothing under -race")
	}
	s := New(Config{Workers: 2})
	defer s.Close()
	ctx := context.Background()
	n := 0
	if got := testing.AllocsPerRun(200, func() {
		s.Submit(ctx, "db", time.Millisecond, func() { n++ })
	}); got != 0 {
		t.Errorf("Submit: %.1f allocs, want 0", got)
	}
}

func TestNewStartsNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(Config{Workers: 8})
	defer s.Close()
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("New started %d goroutines, want 0", after-before)
	}
}

// Waiters whose deadlines fall before, around and after their grant
// leave nothing behind: each either ran or expired, and every slot comes
// back.
func TestCancelledWaitersReturnTheirSlots(t *testing.T) {
	s := New(Config{Workers: 2})
	const n = 200
	var ran, ok atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%20)*50*time.Microsecond)
			defer cancel()
			if s.Submit(ctx, "db", 0, func() { ran.Add(1); time.Sleep(100 * time.Microsecond) }) == nil {
				ok.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if ran.Load() != ok.Load() {
		t.Fatalf("%d bodies ran, %d Submits returned nil", ran.Load(), ok.Load())
	}
	st := s.Snapshot()
	if st.Queued != 0 || len(st.Keys) != 1 || st.Keys[0].InFlight != 0 {
		t.Fatalf("after every Submit returned: %+v", st)
	}
	if k := st.Keys[0]; k.Dispatched != ok.Load() || k.Dispatched+k.Expired != n {
		t.Fatalf("dispatched %d + expired %d, want %d ran of %d", k.Dispatched, k.Expired, ok.Load(), n)
	}
	s.Close() // returns only if every slot came back
}

// Close lets queued work run, returns once every slot is free, and
// refuses work after that.
func TestCloseDrainsQueue(t *testing.T) {
	s := New(Config{Workers: 1})
	ctx := context.Background()
	running, release := make(chan struct{}), make(chan struct{})
	var ran atomic.Int64
	var wg sync.WaitGroup
	submit := func(fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Submit(ctx, "db", 0, func() { fn(); ran.Add(1) }); err != nil {
				t.Error(err)
			}
		}()
	}
	submit(func() { close(running); <-release })
	<-running
	for i := 0; i < 3; i++ {
		submit(func() {})
	}
	for s.QueueDepth() < 3 {
		time.Sleep(time.Millisecond)
	}
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while a task held a slot")
	case <-time.After(10 * time.Millisecond):
	}
	close(release)
	<-closed
	if got := ran.Load(); got != 4 {
		t.Fatalf("Close returned after %d of 4 tasks ran", got)
	}
	if err := s.Submit(ctx, "db", 0, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v", err)
	}
	wg.Wait()
}
