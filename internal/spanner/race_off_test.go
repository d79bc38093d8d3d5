//go:build !race

package spanner

const raceDetector = false
