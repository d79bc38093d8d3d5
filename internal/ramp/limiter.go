package ramp

import (
	"context"
	"sync"
	"time"
)

// Limiter enforces the conforming-traffic rule as an admission gate: a
// token bucket whose refill rate starts at BaseQPS and multiplies by
// GrowthFactor once per Period, so a client that keeps pressing against
// the ceiling ramps exactly as the paper's 500/50/5 rule allows. The
// BulkWriter throttles its batch sends through one of these.
type Limiter struct {
	rule Rule
	now  func() time.Time

	mu     sync.Mutex
	start  time.Time // ramp origin: rate = BaseQPS * GrowthFactor^(elapsed/Period), stepped
	tokens float64
	last   time.Time // previous refill instant
}

// NewLimiter creates a limiter ramping from rule.BaseQPS. A nil now uses
// time.Now; tests inject a fake clock.
func NewLimiter(rule Rule, now func() time.Time) *Limiter {
	if rule.BaseQPS <= 0 {
		rule.BaseQPS = DefaultRule.BaseQPS
	}
	if rule.GrowthFactor <= 1 {
		rule.GrowthFactor = DefaultRule.GrowthFactor
	}
	if rule.Period <= 0 {
		rule.Period = DefaultRule.Period
	}
	if now == nil {
		now = time.Now
	}
	t := now()
	return &Limiter{rule: rule, now: now, start: t, last: t, tokens: 0}
}

// Rate returns the current admission ceiling in ops/sec: the base rate
// grown once per full elapsed period.
func (l *Limiter) Rate() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rateAt(l.now())
}

func (l *Limiter) rateAt(t time.Time) float64 {
	rate := l.rule.BaseQPS
	for elapsed := t.Sub(l.start); elapsed >= l.rule.Period; elapsed -= l.rule.Period {
		rate *= l.rule.GrowthFactor
	}
	return rate
}

// refill credits tokens accrued since the last refill at the then-current
// rate, capping the bucket at one second's worth so idle time cannot bank
// an arbitrarily large burst.
func (l *Limiter) refill() {
	t := l.now()
	rate := l.rateAt(t)
	l.tokens += rate * t.Sub(l.last).Seconds()
	if l.tokens > rate {
		l.tokens = rate
	}
	l.last = t
}

// Acquire blocks until n admission tokens are available (or ctx is
// done), consuming them. n larger than one second of the current rate is
// still admitted — it just waits through more than one refill.
func (l *Limiter) Acquire(ctx context.Context, n int) error {
	need := float64(n)
	for {
		l.mu.Lock()
		l.refill()
		if l.tokens >= need {
			l.tokens -= need
			l.mu.Unlock()
			return nil
		}
		missing := need - l.tokens
		if l.tokens > 0 {
			// Partial claim so a big request makes progress across
			// refills instead of starving behind small ones.
			need = missing
			l.tokens = 0
		}
		rate := l.rateAt(l.now())
		l.mu.Unlock()
		wait := time.Duration(missing / rate * float64(time.Second))
		if wait < time.Millisecond {
			wait = time.Millisecond
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(wait):
		}
	}
}
