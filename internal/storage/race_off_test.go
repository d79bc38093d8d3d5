//go:build !race

package storage

const raceDetector = false
