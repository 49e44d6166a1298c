//go:build race

package repro

// raceDetector reports whether the test binary runs under the race
// detector, for tests whose single-goroutine workload it only slows down.
const raceDetector = true
