//go:build !race

package doc

const raceDetector = false
