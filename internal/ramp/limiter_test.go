package ramp

import (
	"context"
	"testing"
	"time"
)

// TestDefaultsApplied: a zero Rule ramps from the paper's 500 QPS base.
func TestDefaultsApplied(t *testing.T) {
	if got := NewLimiter(Rule{}, nil).Rate(); got != 500 {
		t.Fatalf("default base = %v", got)
	}
}

func TestLimiterRateGrowth(t *testing.T) {
	base := time.Unix(0, 0)
	cur := base
	now := func() time.Time { return cur }
	l := NewLimiter(Rule{BaseQPS: 100, GrowthFactor: 1.5, Period: time.Minute}, now)

	if got := l.Rate(); got != 100 {
		t.Errorf("rate at t0 = %v, want 100", got)
	}
	cur = base.Add(59 * time.Second)
	if got := l.Rate(); got != 100 {
		t.Errorf("rate mid-period = %v, want 100", got)
	}
	cur = base.Add(time.Minute)
	if got := l.Rate(); got != 150 {
		t.Errorf("rate after 1 period = %v, want 150", got)
	}
	cur = base.Add(2*time.Minute + 30*time.Second)
	if got := l.Rate(); got != 225 {
		t.Errorf("rate after 2.5 periods = %v, want 225", got)
	}
}

func TestLimiterAcquireFromBank(t *testing.T) {
	base := time.Unix(0, 0)
	cur := base
	now := func() time.Time { return cur }
	l := NewLimiter(Rule{BaseQPS: 100, GrowthFactor: 1.5, Period: time.Hour}, now)

	// Half a second at 100 QPS banks 50 tokens.
	cur = base.Add(500 * time.Millisecond)
	if err := l.Acquire(context.Background(), 50); err != nil {
		t.Fatal(err)
	}
	// The bank caps at one second of rate: a long idle gap does not
	// accumulate an unbounded burst.
	cur = base.Add(time.Hour / 2)
	l.mu.Lock()
	l.refill()
	banked := l.tokens
	l.mu.Unlock()
	if banked > 100 {
		t.Errorf("banked %v tokens, want <= 100 (1s of rate)", banked)
	}
}

func TestLimiterAcquireBlocksUntilRefill(t *testing.T) {
	// Real clock: 2000 QPS means 40 tokens arrive in ~20ms.
	l := NewLimiter(Rule{BaseQPS: 2000, GrowthFactor: 1.5, Period: time.Hour}, nil)
	start := time.Now()
	if err := l.Acquire(context.Background(), 40); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 10*time.Millisecond {
		t.Errorf("Acquire(40) returned in %v, want >= ~20ms of refill wait", el)
	}
}

func TestLimiterAcquireCancel(t *testing.T) {
	l := NewLimiter(Rule{BaseQPS: 1, GrowthFactor: 1.5, Period: time.Hour}, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := l.Acquire(ctx, 1000); err == nil {
		t.Fatal("Acquire survived a cancelled context")
	}
}
