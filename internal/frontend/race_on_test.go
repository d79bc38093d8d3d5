//go:build race

package frontend

// raceDetector reports a -race build, where allocation counts stop
// meaning anything.
const raceDetector = true
