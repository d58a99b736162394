package ingest

import (
	"time"

	"certchains/internal/analysis"
)

// HoldBuilds takes every report build slot and returns the function that
// gives them back. In between, a Report that has to build waits with its
// flight registered, so a test can gather requests behind it.
func HoldBuilds(ing *Ingestor) (release func()) {
	for i := 0; i < cap(ing.buildSlots); i++ {
		ing.buildSlots <- struct{}{}
	}
	return func() {
		for i := 0; i < cap(ing.buildSlots); i++ {
			<-ing.buildSlots
		}
	}
}

// ReportLocked renders the window with the ring and the open aggregates both
// read under the one ingest lock, as every build did before builds moved to
// the ring's read lock: the reference the concurrent path must match.
func ReportLocked(ing *Ingestor, window time.Duration) *analysis.Report {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	return ing.ring.ReportWith(ing.agg.provisional(), window)
}
