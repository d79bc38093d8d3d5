//go:build !race

package wfq

const raceDetector = false
