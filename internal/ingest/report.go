package ingest

import (
	"time"

	"certchains/internal/analysis"
)

// flightKey names what a report build reads: the ingest state (version) and
// the window's span in ring intervals (0 = all time). Two requests with the
// same key would build the same bytes.
type flightKey struct {
	version uint64
	span    int64
}

// reportFlight is one report build; rep is set before done closes.
type reportFlight struct {
	done chan struct{}
	rep  *analysis.Report
}

// Report renders the trailing window (<= 0 means all time). Open, not yet
// folded aggregates are included as provisional observations so the current
// interval is visible live.
//
// The build runs outside mu, under ringMu's read lock only. Concurrent calls
// with the same key (state version, window span) share one build and get the
// same *Report, which callers must treat as read-only. The flight ends with
// its build: nothing is cached.
func (ing *Ingestor) Report(window time.Duration) *analysis.Report {
	key := flightKey{span: ing.ring.Span(window)}
	ing.mu.Lock()
	key.version = ing.version
	f, shared := ing.flights[key]
	if shared {
		ing.reportShared++
	} else {
		f = &reportFlight{done: make(chan struct{})}
		ing.flights[key] = f
		ing.reportBuilds++
	}
	ing.mu.Unlock()
	if !shared {
		ing.build(key, f, window)
	}
	<-f.done
	return f.rep
}

// build runs one flight. It waits for a build slot holding no lock, then
// copies the open aggregates under mu and hands over to ringMu's read lock
// before releasing mu, so the provisional copy and the ring are of one
// instant — the current one, at least as fresh as the flight's key. At most
// cap(buildSlots) builds run at once: a build is CPU-bound, and the single
// ingest lock used to bound it to one.
func (ing *Ingestor) build(key flightKey, f *reportFlight, window time.Duration) {
	ing.buildSlots <- struct{}{}
	defer func() {
		<-ing.buildSlots
		ing.mu.Lock()
		delete(ing.flights, key)
		ing.mu.Unlock()
		close(f.done)
	}()
	ing.mu.Lock()
	extra := ing.agg.provisional()
	ing.ringMu.RLock()
	ing.mu.Unlock()
	defer ing.ringMu.RUnlock()
	f.rep = ing.ring.ReportWith(extra, window)
}
