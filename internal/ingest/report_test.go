// Tests for the report read path: builds run beside ingest under the ring's
// read lock, concurrent requests for the same state and window share one
// build, and a bad request builds nothing.
package ingest_test

import (
	"crypto/sha256"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"certchains/internal/analysis"
	"certchains/internal/ingest"
	"certchains/internal/obs"
)

// polledIngestor tails the whole seed-1 capture with one PollOnce and no
// Finish, so the open aggregates are still provisional.
func polledIngestor(t *testing.T, p *analysis.Pipeline) *ingest.Ingestor {
	t.Helper()
	ssl, x509 := replayBytes(t, scenario(t, 1), false)
	sslPath, x509Path := writeLogs(t, t.TempDir(), ssl, x509)
	ing := ingest.New(p, ingest.Config{
		SSLPath:  sslPath,
		X509Path: x509Path,
		Window:   analysis.WindowConfig{Interval: giantInterval, Buckets: 4, Workers: 2},
	})
	t.Cleanup(func() { ing.Close() })
	if err := ing.PollOnce(); err != nil {
		t.Fatal(err)
	}
	return ing
}

// TestReportBadFormatBuildsNothing: /report validates ?format= before it
// builds, so a bad format is a 400 that records no window/report span and
// counts no build.
func TestReportBadFormatBuildsNothing(t *testing.T) {
	p := newPipeline(scenario(t, 1))
	p.Tracer = obs.NewTracer()
	ing := polledIngestor(t, p)

	rec := httptest.NewRecorder()
	ing.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/report?window=1h&format=xml", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("format=xml: code %d, want 400", rec.Code)
	}
	for _, st := range p.Tracer.Stages() {
		if st.Stage == "window-report" {
			t.Errorf("a bad-format request built a report: %d window-report spans", st.Spans)
		}
	}
	if n := ing.Stats().ReportBuilds; n != 0 {
		t.Errorf("ReportBuilds = %d after a bad-format request, want 0", n)
	}
}

// TestReportSingleFlight: eight concurrent requests for one window at one
// state version run exactly one build and share its *Report; the flight ends
// with the build, so the next request builds again.
func TestReportSingleFlight(t *testing.T) {
	const n = 8
	ing := polledIngestor(t, newPipeline(scenario(t, 1)))

	release := ingest.HoldBuilds(ing)
	reps := make([]*analysis.Report, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i] = ing.Report(time.Hour)
		}(i)
	}
	// With the slots held, the first request waits in its build; the others
	// can only join it.
	deadline := time.Now().Add(30 * time.Second)
	for st := ing.Stats(); st.ReportBuilds+st.ReportShared < n; st = ing.Stats() {
		if time.Now().After(deadline) {
			release()
			t.Fatalf("requests never gathered: %d builds, %d shared", st.ReportBuilds, st.ReportShared)
		}
		time.Sleep(time.Millisecond)
	}
	release()
	wg.Wait()

	if st := ing.Stats(); st.ReportBuilds != 1 || st.ReportShared != n-1 {
		t.Errorf("%d concurrent requests: %d builds, %d shared; want 1 and %d", n, st.ReportBuilds, st.ReportShared, n-1)
	}
	for i, r := range reps {
		if r != reps[0] {
			t.Errorf("request %d got its own *Report", i)
		}
	}
	if reps[0].Render() != ingest.ReportLocked(ing, time.Hour).Render() {
		t.Error("shared report differs from the lock-held reference")
	}
	ing.Report(time.Hour)
	if st := ing.Stats(); st.ReportBuilds != 2 {
		t.Errorf("a request after the flight ended: %d builds, want 2 (nothing is cached)", st.ReportBuilds)
	}
}

// TestReportBesideIngest is the read path's correctness fence. A paced
// feeder appends the capture in cuts and polls each, with windows small
// enough to fold mid-test, then finishes; beside it four readers cycle the
// report routes (all-time and windowed, text and JSON) plus /healthz and
// /metrics. Every report body must equal the lock-held reference rendered at
// some poll boundary no earlier than the last poll completed before the
// request was sent. make ingest-smoke runs it under -race.
func TestReportBesideIngest(t *testing.T) {
	const cuts, readers = 24, 4
	s := scenario(t, 1)
	ssl, x509 := replayBytes(t, s, false)
	at := func(data []byte, i int) int { return len(data) * i / cuts }
	sslPath, x509Path := writeLogs(t, t.TempDir(), ssl[:at(ssl, 1)], x509[:at(x509, 1)])
	interval := span(s)/8 + time.Nanosecond
	ing := ingest.New(newPipeline(s), ingest.Config{
		SSLPath:  sslPath,
		X509Path: x509Path,
		Window:   analysis.WindowConfig{Interval: interval, Buckets: 4, Workers: 2},
	})
	defer ing.Close()
	h := ing.Handler()

	windows := []time.Duration{0, 2 * interval}
	w := windows[1].String()
	routes := []string{"/report", "/report?format=json", "/report?window=" + w, "/report?window=" + w + "&format=json"}
	paths := append(append([]string(nil), routes...), "/healthz", "/metrics")

	// refs[b][route] digests the lock-held rendering at boundary b: the
	// state after the feeder's (b+1)-th PollOnce, or after Finish.
	var refs [][4][32]byte
	reference := func() {
		var r [4][32]byte
		for i, win := range windows {
			rep := ingest.ReportLocked(ing, win)
			js, err := rep.JSON()
			if err != nil {
				t.Fatal(err)
			}
			r[2*i], r[2*i+1] = sha256.Sum256([]byte(rep.Render())), sha256.Sum256(js)
		}
		refs = append(refs, r)
	}
	var boundary atomic.Int64 // last boundary completed
	if err := ing.PollOnce(); err != nil {
		t.Fatal(err)
	}
	reference()

	type seen struct {
		route int
		after int64
		sum   [32]byte
	}
	var (
		mu   sync.Mutex
		got  []seen
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; !stop.Load(); i++ {
				route := i % len(paths)
				after := boundary.Load()
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, paths[route], nil))
				body := rec.Body.Bytes()
				switch {
				case rec.Code != http.StatusOK:
					t.Errorf("%s: code %d", paths[route], rec.Code)
				case route < len(routes):
					mu.Lock()
					got = append(got, seen{route, after, sha256.Sum256(body)})
					mu.Unlock()
				case paths[route] == "/healthz" && !json.Valid(body):
					t.Errorf("/healthz: invalid JSON")
				case paths[route] == "/metrics":
					if err := obs.ValidateExposition(body); err != nil {
						t.Errorf("/metrics: %v", err)
					}
				}
			}
		}(r)
	}

	for i := 2; i <= cuts; i++ {
		// Pace each poll behind a build begun since the last boundary, so
		// folds land while a reader holds the ring's read lock.
		builds := ing.Stats().ReportBuilds
		for deadline := time.Now().Add(10 * time.Second); ing.Stats().ReportBuilds == builds && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(time.Millisecond)
		appendFile(t, sslPath, ssl[at(ssl, i-1):at(ssl, i)])
		appendFile(t, x509Path, x509[at(x509, i-1):at(x509, i)])
		if err := ing.PollOnce(); err != nil {
			stop.Store(true)
			wg.Wait()
			t.Fatal(err)
		}
		boundary.Add(1)
		reference()
	}
	if err := ing.Finish(); err != nil {
		stop.Store(true)
		wg.Wait()
		t.Fatal(err)
	}
	boundary.Add(1)
	reference()
	stop.Store(true)
	wg.Wait()

	if st := ing.Stats(); st.FoldedWindows < 2 {
		t.Fatalf("only %d windows folded; the test needs folds beside the readers", st.FoldedWindows)
	}
	if len(got) < len(routes) {
		t.Fatalf("readers completed only %d report requests", len(got))
	}
	t.Logf("%d report bodies checked against %d boundaries", len(got), len(refs))
	for _, g := range got {
		ok := false
		for b := g.after; b < int64(len(refs)) && !ok; b++ {
			ok = refs[b][g.route] == g.sum
		}
		if !ok {
			t.Errorf("%s sent after boundary %d matches no lock-held reference at or after it", routes[g.route], g.after)
		}
	}
}
