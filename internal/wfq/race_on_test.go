//go:build race

package wfq

// raceDetector reports a -race build, where allocation counts stop
// meaning anything.
const raceDetector = true
