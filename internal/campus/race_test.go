//go:build race

package campus_test

// The race detector slows the single-goroutine replay tenfold and more;
// the full-volume oracle matrix then outlasts the test timeout.
func init() { underRace = true }
