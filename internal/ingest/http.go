package ingest

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"certchains/internal/obs"
)

// Handler returns the daemon's admin surface:
//
//	GET /report?window=1h|24h|all&format=text|json  — windowed analysis report
//	GET /healthz                                    — liveness + ingest summary
//	GET /metrics                                    — Prometheus exposition text
//	GET /debug/pprof/...                            — runtime profiling
//
// Everything is stdlib; the mux is private so the daemon controls exactly
// what is exposed. The surface is wrapped in the shared serving telemetry
// (obs.HTTPMetrics): per-route latency and response-size histograms, the
// request counter, and the in-flight gauge land in the same registry
// /metrics renders, so a scrape shows the daemon's own serving profile.
func (ing *Ingestor) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/report", ing.handleReport)
	mux.HandleFunc("/healthz", ing.handleHealthz)
	mux.HandleFunc("/metrics", ing.handleMetrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return obs.NewHTTPMetrics(ing.reg).Middleware(mux, ing.cfg.AccessLog,
		"/report", "/healthz", "/metrics", "/debug/pprof/")
}

// parseWindow maps the ?window= query to a trailing duration; 0 means all
// time.
func parseWindow(q string) (time.Duration, error) {
	switch strings.ToLower(q) {
	case "", "all", "alltime", "total":
		return 0, nil
	case "hour":
		return time.Hour, nil
	case "day":
		return 24 * time.Hour, nil
	}
	d, err := time.ParseDuration(q)
	if err != nil {
		return 0, fmt.Errorf("bad window %q: use e.g. 1h, 24h, or all", q)
	}
	if d <= 0 {
		return 0, fmt.Errorf("bad window %q: must be positive", q)
	}
	return d, nil
}

// handleReport validates both parameters before it builds anything, so a
// bad request costs no report build.
func (ing *Ingestor) handleReport(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	window, err := parseWindow(q.Get("window"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	format := strings.ToLower(q.Get("format"))
	if format != "" && format != "text" && format != "json" {
		http.Error(w, "bad format: use text or json", http.StatusBadRequest)
		return
	}
	rep := ing.Report(window)
	if format != "json" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, rep.Render())
		return
	}
	js, err := rep.JSON()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(js)
}

// handleHealthz reports liveness. Build revision and snapshot age are read
// back out of the shared registry — the same series /metrics exposes — so
// the two admin surfaces can never drift apart.
func (ing *Ingestor) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s := ing.Stats()
	s.Fill(ing.reg)
	doc := struct {
		Status        string `json:"status"`
		BuildRevision string `json:"build_revision"`
		GoVersion     string `json:"go_version,omitempty"`
		Stats
	}{Status: "ok", Stats: s}
	if info := ing.reg.InfoLabels("certchain_build_info"); info != nil {
		doc.BuildRevision = info["revision"]
		doc.GoVersion = info["go_version"]
	} else {
		doc.BuildRevision = obs.Build().Revision()
	}
	if age, ok := ing.reg.Value("certchain_snapshot_age_seconds"); ok {
		doc.SnapshotAge = age
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(doc)
}

func (ing *Ingestor) handleMetrics(w http.ResponseWriter, r *http.Request) {
	ing.Stats().Fill(ing.reg)
	ing.reg.Handler().ServeHTTP(w, r)
}
