//go:build race

package transport

// raceDetector reports a -race build, where allocation counts stop
// meaning anything.
const raceDetector = true
