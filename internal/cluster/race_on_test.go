//go:build race

package cluster

// raceDetector reports a -race build, where allocation counts stop
// meaning anything.
const raceDetector = true
