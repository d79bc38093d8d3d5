package autoscale

import (
	"testing"
	"time"
)

func TestDefaults(t *testing.T) {
	p := New(Config{})
	if p.Tasks() != 1 {
		t.Fatalf("initial tasks = %d, want 1", p.Tasks())
	}
	if p.Utilization() != 0 {
		t.Fatalf("idle utilization = %v", p.Utilization())
	}
	if p.QueuePenalty(time.Millisecond) != 0 {
		t.Fatal("idle queue penalty should be 0")
	}
}

func TestScaleUpAfterDelay(t *testing.T) {
	p := New(Config{
		MinTasks:       1,
		TaskThroughput: 100,
		ReactionDelay:  50 * time.Millisecond,
	})
	// Offer ~1000 ops/sec for a while.
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		p.Observe(10)
		time.Sleep(10 * time.Millisecond)
	}
	if got := p.Tasks(); got < 2 {
		t.Fatalf("Tasks = %d after sustained load, want >= 2", got)
	}
}

func TestNoScaleUpBeforeDelay(t *testing.T) {
	p := New(Config{
		MinTasks:       1,
		TaskThroughput: 10,
		ReactionDelay:  10 * time.Second,
	})
	p.Observe(1000) // huge instantaneous spike
	if got := p.Tasks(); got != 1 {
		t.Fatalf("Tasks = %d immediately after spike, want 1 (reaction delay)", got)
	}
}

func TestScaleDownWhenIdle(t *testing.T) {
	p := New(Config{
		MinTasks:       1,
		TaskThroughput: 10,
		ReactionDelay:  20 * time.Millisecond,
		MaxStepFactor:  100,
	})
	deadline := time.Now().Add(150 * time.Millisecond)
	for time.Now().Before(deadline) {
		p.Observe(20)
		time.Sleep(5 * time.Millisecond)
	}
	grown := p.Tasks()
	if grown < 2 {
		t.Skipf("pool did not grow (%d); timing-sensitive", grown)
	}
	// Go idle; rate decays and the pool shrinks after the delay.
	time.Sleep(200 * time.Millisecond)
	p.Tasks() // trigger evaluation (starts pending-down timer)
	time.Sleep(50 * time.Millisecond)
	if got := p.Tasks(); got >= grown {
		t.Fatalf("Tasks = %d after idling, want < %d", got, grown)
	}
}

func TestQueuePenaltyGrowsWithUtilization(t *testing.T) {
	p := New(Config{
		MinTasks:       1,
		TaskThroughput: 1e9, // never scale
		ReactionDelay:  time.Hour,
	})
	base := time.Millisecond
	idle := p.QueuePenalty(base)
	p.Observe(1 << 28) // drive utilization up
	busy := p.QueuePenalty(base)
	if busy <= idle {
		t.Fatalf("penalty did not grow: idle=%v busy=%v", idle, busy)
	}
	if busy > 50*base {
		t.Fatalf("penalty %v exceeds clamp", busy)
	}
}

func TestGradualStepBound(t *testing.T) {
	p := New(Config{
		MinTasks:       1,
		TaskThroughput: 1,
		ReactionDelay:  time.Millisecond,
		MaxStepFactor:  2,
	})
	p.Observe(100000)
	time.Sleep(5 * time.Millisecond)
	p.Observe(100000)
	// One resize may only double.
	if got := p.Tasks(); got > 2 {
		t.Fatalf("Tasks = %d after one step, want <= 2", got)
	}
}
