//go:build !race

package backend

const raceDetector = false
