//go:build !race

package rtcache

const raceDetector = false
