//go:build race

package bench

// raceDetector reports a -race build, where every atomic load is
// instrumented and nanosecond bounds stop meaning anything.
const raceDetector = true
