//go:build !race

package index

const raceDetector = false
