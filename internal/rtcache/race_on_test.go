//go:build race

package rtcache

// raceDetector reports a -race build, where allocation counts stop
// meaning anything.
const raceDetector = true
