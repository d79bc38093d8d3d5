//go:build race

package spanner

// raceDetector reports a -race build, where allocation counts stop
// meaning anything.
const raceDetector = true
