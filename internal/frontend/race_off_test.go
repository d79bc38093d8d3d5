//go:build !race

package frontend

const raceDetector = false
