package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"certchains/internal/analysis"
	"certchains/internal/ingest"
	"certchains/internal/resilience"
)

const (
	// feedTick is the open-loop feeder's period: one feedRecords cut per
	// tick is 4,000 rows/s.
	feedTick = 128 * time.Millisecond
	// serveClients is the number of closed-loop readers.
	serveClients = 2
	// requestTimeout is when a reader gives a request up as failed.
	requestTimeout = 5 * time.Second
	// serveSlices divides the window for the end-to-end metrics: each is
	// reported as the median over the slices, so one stall moves one slice.
	serveSlices = 5
)

// request is one client-observed response.
type request struct {
	route int
	at    time.Duration // start, since the window opened
	ms    float64
	bytes int
}

// feed is one cut's ingest: how late the feeder ran, how long PollOnce
// took, and the lag from the cut's due time to PollOnce returning.
type feed struct {
	at                 time.Duration // due time, since the window opened
	lateMS, pollMS, ms float64
	rows               int64
}

// serveResult is everything a serving window observed.
type serveResult struct {
	window   time.Duration
	requests []request
	feeds    []feed
	// preloadAllocs and preloadBytes are allocations per row while the fold
	// loop ran alone.
	preloadAllocs, preloadBytes float64
	// quietPollMS are the window's cuts polled again with no readers.
	quietPollMS []float64
}

// routes are the four report variants the readers cycle through.
func routes(in *inputs) []string {
	w := (2 * in.ringInterval()).String()
	return []string{
		"/report",
		"/report?format=json",
		"/report?window=" + w,
		"/report?window=" + w + "&format=json",
	}
}

// serveWindow is writes beside reads on one ring under one lock. The first
// half of the capture is preloaded; then, for seconds, an open-loop feeder
// appends one cut per tick and polls, while closed-loop readers fetch
// reports over loopback as fast as replies come. Afterwards the ingestor is
// finished and its all-time report digested for the parent's check.
func serveWindow(in *inputs, p *analysis.Pipeline, outDir string, seconds float64, tr *tracer, res *childResult) (*serveResult, error) {
	// Nothing cancels a window: the parent kills the child if it must.
	ctx := context.Background()
	app, err := newAppender(in, outDir)
	if err != nil {
		return nil, err
	}
	defer app.Close()
	ing := ingest.New(p, ingestConfig(in, app.SSL, app.X509))
	defer ing.Close()
	sr := &serveResult{window: time.Duration(seconds * float64(time.Second))}

	half := len(in.Cuts) / 2
	if sr.preloadAllocs, sr.preloadBytes, err = preload(in, app, ing); err != nil {
		return nil, err
	}

	srv := httptest.NewServer(ing.Handler())
	defer srv.Close()
	client := &http.Client{Timeout: requestTimeout}
	defer client.CloseIdleConnections()
	paths := routes(in)

	root := tr.start("harness", "serve-window", noParent)
	start := time.Now()
	deadline := start.Add(sr.window)
	var wg sync.WaitGroup
	var mu sync.Mutex // guards sr.requests and res from the readers
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; time.Now().Before(deadline); i++ {
				route := i % len(paths)
				sp := tr.startOn(1+c, "ingest", "ingest.http", root)
				t0 := time.Now()
				n, err := fetch(ctx, client, srv.URL+paths[route], route%2 == 1)
				d := time.Since(t0)
				tr.end(sp)
				mu.Lock()
				res.Attempted++
				if err != nil {
					res.fail(1, "GET %s: %v", paths[route], err)
				} else {
					sr.requests = append(sr.requests, request{route: route, at: t0.Sub(start), ms: d.Seconds() * 1e3, bytes: n})
				}
				mu.Unlock()
			}
		}(c)
	}

	// The feeder is this goroutine: the Zeek writer does not wait for the
	// daemon, so each cut has a due time fixed in advance and its lag is
	// counted from then.
	next := half
	var feedErr error
	for tick := 0; next < len(in.Cuts); tick++ {
		due := start.Add(time.Duration(tick) * feedTick)
		if !due.Before(deadline) {
			break
		}
		if feedErr = resilience.Sleep(ctx, time.Until(due)); feedErr != nil {
			break
		}
		late := time.Since(due)
		sp := tr.start("harness", "harness.append", root)
		rows, err := app.appendTo(in.Cuts[next])
		tr.end(sp)
		if err != nil {
			feedErr = err
			break
		}
		next++
		sp = tr.start("ingest", "ingest.poll", root)
		t0 := time.Now()
		err = ing.PollOnce()
		done := time.Now()
		tr.end(sp)
		if err != nil {
			feedErr = err
			break
		}
		sr.feeds = append(sr.feeds, feed{
			at:     due.Sub(start),
			lateMS: late.Seconds() * 1e3,
			pollMS: done.Sub(t0).Seconds() * 1e3,
			ms:     done.Sub(due).Seconds() * 1e3,
			rows:   rows,
		})
	}
	wg.Wait()
	tr.end(root)
	if feedErr != nil {
		return nil, feedErr
	}

	if err := ing.Finish(); err != nil {
		return nil, err
	}
	text, js, err := finalReport(ing)
	if err != nil {
		return nil, err
	}
	res.TextSHA, res.JSONSHA = sha(text), sha(js)
	res.CutsFed = next
	checkDrained(ing.Stats(), app.at.Records, res)
	return sr, nil
}

// fetch does one GET and returns the body length. Anything but a 200 with a
// non-empty body — valid JSON where JSON was asked for — is an error.
func fetch(ctx context.Context, client *http.Client, url string, wantJSON bool) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	switch {
	case resp.StatusCode != http.StatusOK:
		return 0, fmt.Errorf("status %d", resp.StatusCode)
	case len(body) == 0:
		return 0, fmt.Errorf("empty body")
	case wantJSON && !json.Valid(body):
		return 0, fmt.Errorf("body is not valid JSON")
	}
	return len(body), nil
}

// quietReplay polls the window's cuts again on a fresh ingestor with no
// readers: the denominator of "what do readers cost ingest".
func (sr *serveResult) quietReplay(in *inputs, p *analysis.Pipeline, outDir string, cutsFed int) error {
	app, err := newAppender(in, outDir)
	if err != nil {
		return err
	}
	defer app.Close()
	ing := ingest.New(p, ingestConfig(in, app.SSL, app.X509))
	defer ing.Close()
	if _, _, err := preload(in, app, ing); err != nil {
		return err
	}
	for i := len(in.Cuts) / 2; i < cutsFed; i++ {
		if _, err := app.appendTo(in.Cuts[i]); err != nil {
			return err
		}
		t0 := time.Now()
		if err := ing.PollOnce(); err != nil {
			return err
		}
		sr.quietPollMS = append(sr.quietPollMS, time.Since(t0).Seconds()*1e3)
	}
	return nil
}

// preload appends the first half of the capture and folds it with one
// PollOnce, returning that poll's allocations and allocated bytes per row.
func preload(in *inputs, app *appender, ing *ingest.Ingestor) (allocsPerRow, bytesPerRow float64, err error) {
	half := len(in.Cuts) / 2
	if half == 0 {
		return 0, 0, fmt.Errorf("capture of %d cuts is too short to preload", len(in.Cuts))
	}
	rows, err := app.appendTo(in.Cuts[half-1])
	if err != nil {
		return 0, 0, err
	}
	m0, b0 := mallocs()
	if err := ing.PollOnce(); err != nil {
		return 0, 0, err
	}
	m1, b1 := mallocs()
	return float64(m1-m0) / float64(rows), float64(b1-b0) / float64(rows), nil
}

// endToEnd turns the window into the run's series. Ingest capacity beside
// readers and reader latency are taken per slice of the window.
func (sr *serveResult) endToEnd(res *childResult) {
	slice := sr.window / serveSlices
	for s := 0; s < serveSlices; s++ {
		lo, hi := time.Duration(s)*slice, time.Duration(s+1)*slice
		var lat []float64
		for _, r := range sr.requests {
			if r.at >= lo && r.at < hi {
				lat = append(lat, r.ms)
			}
		}
		var rows int64
		var poll float64
		for _, f := range sr.feeds {
			if f.at >= lo && f.at < hi {
				rows += f.rows
				poll += f.pollMS
			}
		}
		if len(lat) > 0 {
			res.add("report_ms", percentile(lat, 0.5))
		}
		if poll > 0 {
			res.add("rows_per_s", float64(rows)/(poll/1e3))
		}
	}
	// Go counts allocations per process, so beside the readers the fold
	// loop's share cannot be told apart; the preload is where it ran alone.
	res.add("allocs_per_row", sr.preloadAllocs)
	res.add("alloc_bytes_per_row", sr.preloadBytes)
}

// layers turns the window into the serving layer's metrics.
func (sr *serveResult) layers(out map[string]float64) {
	var all, bytes []float64
	byRoute := make([][]float64, 4)
	for _, r := range sr.requests {
		all = append(all, r.ms)
		bytes = append(bytes, float64(r.bytes))
		byRoute[r.route] = append(byRoute[r.route], r.ms)
	}
	out["ingest.http_text_p50_ms"] = percentile(byRoute[0], 0.5)
	out["ingest.http_json_p50_ms"] = percentile(byRoute[1], 0.5)
	out["ingest.http_window_p50_ms"] = percentile(append(byRoute[2], byRoute[3]...), 0.5)
	out["ingest.http_p99_ms"] = percentile(all, 0.99)
	out["ingest.http_rps"] = float64(len(all)) / sr.window.Seconds()
	out["ingest.resp_bytes_p50"] = percentile(bytes, 0.5)
	var lag, late, poll []float64
	for _, f := range sr.feeds {
		lag = append(lag, f.ms)
		late = append(late, f.lateMS)
		poll = append(poll, f.pollMS)
	}
	out["ingest.lag_p50_ms"] = percentile(lag, 0.5)
	out["ingest.lag_p90_ms"] = percentile(lag, 0.9)
	out["ingest.poll_under_read_p50_ms"] = percentile(poll, 0.5)
	out["ingest.poll_quiet_p50_ms"] = percentile(sr.quietPollMS, 0.5)
	out["harness.feeder_late_p99_ms"] = percentile(late, 0.99)
}
