// Package ramp implements Firestore's conforming-traffic rule (§IV-C):
// traffic to a database should "increase at most 50% every 5 minutes,
// starting from a 500 QPS base", a bound chosen to conservatively match
// Spanner's load-based splitting speed. The Limiter admits traffic at
// exactly that ramp; the BulkWriter sends its batches through one, so
// bulk traffic conforms by construction.
package ramp

import "time"

// Rule is the conforming-traffic parameters.
type Rule struct {
	// BaseQPS is always-conforming traffic (default 500).
	BaseQPS float64
	// GrowthFactor per Period (default 1.5 = +50%).
	GrowthFactor float64
	// Period is the growth window (default 5m; tests shrink it).
	Period time.Duration
}

// DefaultRule is the paper's published rule.
var DefaultRule = Rule{BaseQPS: 500, GrowthFactor: 1.5, Period: 5 * time.Minute}
