//go:build race

package backend

// raceDetector reports a -race build, where sync.Pool drops a quarter of
// what is put back and allocation counts stop meaning anything.
const raceDetector = true
