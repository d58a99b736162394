package dist_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"certchains/internal/analysis"
	"certchains/internal/campus"
	"certchains/internal/certmodel"
	"certchains/internal/dist"
	"certchains/internal/lint"
	"certchains/internal/obs"
	"certchains/internal/resilience"
)

func scenario(t *testing.T, seed int64) *campus.Scenario {
	t.Helper()
	cfg := campus.DefaultConfig()
	cfg.Seed = seed
	cfg.Scale = 0.002
	s, err := campus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newPipeline(s *campus.Scenario, lintProfile string) *analysis.Pipeline {
	p := analysis.FromScenario(s)
	if lintProfile != "" {
		p.Linter = lint.New(s.Classifier, lint.Config{Now: s.End(), Profile: lintProfile})
	}
	return p
}

// startWorkers brings up n in-process shard daemons over httptest.
func startWorkers(t *testing.T, n int, mk func(i int) dist.WorkerConfig) []string {
	t.Helper()
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		w := dist.NewWorker(mk(i))
		t.Cleanup(w.Close)
		srv := httptest.NewServer(w.Handler())
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return urls
}

// renderings returns every byte surface the equivalence claim pins: the text
// report, the JSON export, and the manifest deterministic subset.
func renderings(t *testing.T, res *dist.Result, tracer *obs.Tracer, seed int64) (string, []byte, []byte) {
	t.Helper()
	text := res.Report.Render()
	jsonBytes, err := res.Report.JSON()
	if err != nil {
		t.Fatal(err)
	}
	man := &obs.Manifest{
		Tool:         "dist-test",
		Seed:         seed,
		Scale:        0.002,
		Workers:      1,
		Inputs:       res.Inputs,
		Stages:       tracer.Stages(),
		ReportSHA256: obs.SHA256Hex([]byte(text)),
		Build:        obs.Build(),
	}
	subset, err := man.DeterministicSubset()
	if err != nil {
		t.Fatal(err)
	}
	return text, jsonBytes, subset
}

// TestDistTopologyEquivalence pins the three-rung claim byte for byte:
// 1 sequential pass ≡ N goroutines in one process ≡ N worker processes,
// across seeds and partition counts, on text, JSON, and manifest subset.
func TestDistTopologyEquivalence(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		seed  int64
		parts int
		lint  string
	}{
		{seed: 1, parts: 1},
		{seed: 1, parts: 3, lint: "paper"},
		{seed: 2, parts: 4},
	} {
		t.Run(fmt.Sprintf("seed%d_parts%d", tc.seed, tc.parts), func(t *testing.T) {
			t.Parallel()
			s := scenario(t, tc.seed)
			parts, err := dist.WritePartitions(s.Observations, t.TempDir(), tc.parts, analysis.FormatTSV)
			if err != nil {
				t.Fatal(err)
			}
			if len(parts) != tc.parts {
				t.Fatalf("wrote %d partitions, want %d", len(parts), tc.parts)
			}

			runLocal := func(goroutines int) (*dist.Result, *obs.Tracer) {
				tracer := obs.NewTracer()
				c := dist.NewCoordinator(dist.CoordConfig{
					Pipeline:   newPipeline(s, tc.lint),
					Format:     analysis.FormatTSV,
					Goroutines: goroutines,
					Tracer:     tracer,
				})
				res, err := c.RunLocal(context.Background(), parts)
				if err != nil {
					t.Fatal(err)
				}
				return res, tracer
			}
			seqRes, seqTr := runLocal(1)
			parRes, parTr := runLocal(4)

			workers := startWorkers(t, 3, func(i int) dist.WorkerConfig {
				return dist.WorkerConfig{
					Name:     fmt.Sprintf("w%d", i),
					Pipeline: newPipeline(s, tc.lint),
					Format:   analysis.FormatTSV,
				}
			})
			distTr := obs.NewTracer()
			c := dist.NewCoordinator(dist.CoordConfig{
				Pipeline: newPipeline(s, tc.lint),
				Workers:  workers,
				Format:   analysis.FormatTSV,
				LeaseTTL: 2 * time.Second,
				Poll:     20 * time.Millisecond,
				Retry:    resilience.DefaultPolicy(),
				Tracer:   distTr,
			})
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()
			distRes, err := c.Run(ctx, parts)
			if err != nil {
				t.Fatal(err)
			}

			seqText, seqJSON, seqSub := renderings(t, seqRes, seqTr, tc.seed)
			for name, got := range map[string]*struct {
				res *dist.Result
				tr  *obs.Tracer
			}{
				"parallel":    {parRes, parTr},
				"distributed": {distRes, distTr},
			} {
				text, jsonBytes, sub := renderings(t, got.res, got.tr, tc.seed)
				if text != seqText {
					t.Errorf("%s text report diverges from sequential", name)
				}
				if !bytes.Equal(jsonBytes, seqJSON) {
					t.Errorf("%s JSON export diverges from sequential", name)
				}
				if !bytes.Equal(sub, seqSub) {
					t.Errorf("%s manifest subset diverges from sequential:\n%s\nvs\n%s", name, sub, seqSub)
				}
				if got.res.Observations != seqRes.Observations {
					t.Errorf("%s observations = %d, want %d", name, got.res.Observations, seqRes.Observations)
				}
			}
			if distRes.Requeues != 0 || distRes.Duplicates != 0 {
				t.Errorf("healthy topology churned: requeues=%d duplicates=%d", distRes.Requeues, distRes.Duplicates)
			}
			if distRes.WorkerMetrics == nil {
				t.Fatal("distributed run returned no merged worker metrics")
			}
			if text := distRes.WorkerMetrics.Text(); !strings.Contains(text, "certchain_dist_worker_partitions_total") {
				t.Errorf("merged worker metrics missing partition counter:\n%s", text)
			}
		})
	}
}

// TestCoordWorkerDeathRequeue kills a worker mid-partition (its throttle
// guarantees the partition is still open) and requires the lease to expire,
// the partition to requeue to the surviving worker, and the report to come
// out byte-identical to the local reference.
func TestCoordWorkerDeathRequeue(t *testing.T) {
	t.Parallel()
	s := scenario(t, 1)
	parts, err := dist.WritePartitions(s.Observations, t.TempDir(), 1, analysis.FormatTSV)
	if err != nil {
		t.Fatal(err)
	}
	refTr := obs.NewTracer()
	ref, err := dist.NewCoordinator(dist.CoordConfig{
		Pipeline: newPipeline(s, ""), Format: analysis.FormatTSV, Goroutines: 1, Tracer: refTr,
	}).RunLocal(context.Background(), parts)
	if err != nil {
		t.Fatal(err)
	}

	slow := dist.NewWorker(dist.WorkerConfig{
		Name: "slow", Pipeline: newPipeline(s, ""), Format: analysis.FormatTSV,
		Throttle: time.Hour, // holds the partition open until killed
	})
	defer slow.Close()
	slowSrv := httptest.NewServer(slow.Handler())
	defer slowSrv.Close()
	okURLs := startWorkers(t, 1, func(int) dist.WorkerConfig {
		return dist.WorkerConfig{Name: "ok", Pipeline: newPipeline(s, ""), Format: analysis.FormatTSV}
	})

	tracer := obs.NewTracer()
	c := dist.NewCoordinator(dist.CoordConfig{
		Pipeline: newPipeline(s, ""),
		// slow is first: round-robin assigns the only partition to it.
		Workers:  []string{slowSrv.URL, okURLs[0]},
		Format:   analysis.FormatTSV,
		LeaseTTL: 250 * time.Millisecond,
		Poll:     25 * time.Millisecond,
		Tracer:   tracer,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Kill the slow worker once the assignment has landed on it.
	go func() {
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			req, _ := http.NewRequestWithContext(ctx, http.MethodGet, slowSrv.URL+"/status", nil)
			resp, err := slowSrv.Client().Do(req)
			if err != nil {
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var st dist.StatusResponse
			if err := openStatus(body, &st); err == nil && len(st.Partitions) > 0 {
				slow.Close() // unblock the throttled ingest
				slowSrv.CloseClientConnections()
				slowSrv.Close() // SIGKILL-equivalent: the endpoint goes dark
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	res, err := c.Run(ctx, parts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requeues < 1 {
		t.Errorf("requeues = %d, want >= 1 (lease must have expired)", res.Requeues)
	}
	if got := res.Report.Render(); got != ref.Report.Render() {
		t.Error("post-requeue report diverges from local reference")
	}
	if res.Observations != ref.Observations {
		t.Errorf("observations = %d, want %d", res.Observations, ref.Observations)
	}
	_, _, refSub := renderings(t, ref, refTr, 1)
	_, _, sub := renderings(t, res, tracer, 1)
	if !bytes.Equal(sub, refSub) {
		t.Errorf("post-requeue manifest subset diverges:\n%s\nvs\n%s", sub, refSub)
	}
}

func openStatus(data []byte, st *dist.StatusResponse) error {
	payload, err := certmodel.Open(data, dist.SchemaStatus, dist.WireVersion)
	if err != nil {
		return err
	}
	return json.Unmarshal(payload, st)
}

// TestCoordDuplicateCompletion plants a stale worker that advertises a
// completed partition under a superseded lease. Exactly-once merging must
// discard it: one duplicate counted, report bytes untouched.
func TestCoordDuplicateCompletion(t *testing.T) {
	t.Parallel()
	s := scenario(t, 1)
	parts, err := dist.WritePartitions(s.Observations, t.TempDir(), 1, analysis.FormatTSV)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := dist.NewCoordinator(dist.CoordConfig{
		Pipeline: newPipeline(s, ""), Format: analysis.FormatTSV, Goroutines: 1,
	}).RunLocal(context.Background(), parts)
	if err != nil {
		t.Fatal(err)
	}

	realURLs := startWorkers(t, 1, func(int) dist.WorkerConfig {
		return dist.WorkerConfig{Name: "real", Pipeline: newPipeline(s, ""), Format: analysis.FormatTSV}
	})
	// The stale worker accepts nothing but forever reports the partition
	// done under a lease token the coordinator never issued this run.
	staleMux := http.NewServeMux()
	staleMux.HandleFunc("POST /assign", func(rw http.ResponseWriter, _ *http.Request) {
		rw.WriteHeader(http.StatusNoContent)
	})
	staleMux.HandleFunc("GET /status", func(rw http.ResponseWriter, _ *http.Request) {
		st := dist.StatusResponse{Worker: "stale", Partitions: []dist.PartitionStatus{{
			ID: parts[0].ID, Lease: parts[0].ID + "#999", State: dist.StateDone, Observations: 1,
		}}}
		data, err := certmodel.Seal(dist.SchemaStatus, dist.WireVersion, st)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusInternalServerError)
			return
		}
		rw.Write(data)
	})
	staleSrv := httptest.NewServer(staleMux)
	defer staleSrv.Close()

	c := dist.NewCoordinator(dist.CoordConfig{
		Pipeline: newPipeline(s, ""),
		Workers:  []string{realURLs[0], staleSrv.URL},
		Format:   analysis.FormatTSV,
		LeaseTTL: 2 * time.Second,
		Poll:     20 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	res, err := c.Run(ctx, parts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Duplicates != 1 {
		t.Errorf("duplicates = %d, want exactly 1 (stale completion counted once)", res.Duplicates)
	}
	if got := res.Report.Render(); got != ref.Report.Render() {
		t.Error("report diverges from reference despite exactly-once merge")
	}
	if res.Observations != ref.Observations {
		t.Errorf("observations = %d, want %d (stale state must not be merged)", res.Observations, ref.Observations)
	}
}

// errFS fails every open: the worker it backs reports the partition failed,
// and the coordinator must requeue to the healthy worker.
type errFS struct{}

func (errFS) Open(string) (resilience.File, error) { return nil, errors.New("injected open fault") }
func (errFS) Stat(string) (fs.FileInfo, error)     { return nil, errors.New("injected stat fault") }

func TestCoordReportedFailureRequeue(t *testing.T) {
	t.Parallel()
	s := scenario(t, 1)
	parts, err := dist.WritePartitions(s.Observations, t.TempDir(), 1, analysis.FormatTSV)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := dist.NewCoordinator(dist.CoordConfig{
		Pipeline: newPipeline(s, ""), Format: analysis.FormatTSV, Goroutines: 1,
	}).RunLocal(context.Background(), parts)
	if err != nil {
		t.Fatal(err)
	}

	urls := startWorkers(t, 2, func(i int) dist.WorkerConfig {
		cfg := dist.WorkerConfig{
			Name: fmt.Sprintf("w%d", i), Pipeline: newPipeline(s, ""), Format: analysis.FormatTSV,
		}
		if i == 0 {
			cfg.FS = errFS{} // first-picked worker can read nothing
		}
		return cfg
	})
	c := dist.NewCoordinator(dist.CoordConfig{
		Pipeline: newPipeline(s, ""),
		Workers:  urls,
		Format:   analysis.FormatTSV,
		LeaseTTL: 2 * time.Second,
		Poll:     20 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	res, err := c.Run(ctx, parts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requeues < 1 {
		t.Errorf("requeues = %d, want >= 1 (reported failure must requeue)", res.Requeues)
	}
	if got := res.Report.Render(); got != ref.Report.Render() {
		t.Error("post-failure report diverges from local reference")
	}
}

// TestWireVersionRejection pins the cross-version hazard both directions: a
// worker refuses a future-version assignment, and the coordinator surfaces
// a typed schema error from a future-version worker without retrying it
// into oblivion.
func TestWireVersionRejection(t *testing.T) {
	t.Parallel()
	s := scenario(t, 1)
	w := dist.NewWorker(dist.WorkerConfig{Name: "w", Pipeline: newPipeline(s, ""), Format: analysis.FormatTSV})
	defer w.Close()

	a := dist.Assignment{Lease: "p#1", Partition: dist.Partition{ID: "p", SSL: "x.ssl.log", X509: "x.x509.log"}}
	future, err := certmodel.Seal(dist.SchemaAssignment, dist.WireVersion+1, a)
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{
		"future version": future,
		"unversioned":    []byte(`{"lease":"p#1"}`),
		"garbage":        []byte("not json"),
	} {
		req := httptest.NewRequest(http.MethodPost, "/assign", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		w.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s assignment: status %d, want 400", name, rec.Code)
		}
	}

	// Coordinator side: a peer speaking a future wire version.
	futureMux := http.NewServeMux()
	futureMux.HandleFunc("GET /status", func(rw http.ResponseWriter, _ *http.Request) {
		data, err := certmodel.Seal(dist.SchemaStatus, dist.WireVersion+1, dist.StatusResponse{Worker: "future"})
		if err != nil {
			http.Error(rw, err.Error(), http.StatusInternalServerError)
			return
		}
		rw.Write(data)
	})
	srv := httptest.NewServer(futureMux)
	defer srv.Close()

	parts := []dist.Partition{{ID: "p", Index: 0, SSL: "x.ssl.log", X509: "x.x509.log"}}
	c := dist.NewCoordinator(dist.CoordConfig{
		Pipeline: newPipeline(s, ""),
		Workers:  []string{srv.URL},
		Format:   analysis.FormatTSV,
		Poll:     10 * time.Millisecond,
		Retry:    resilience.Policy{MaxAttempts: 3},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := c.Run(ctx, parts); err == nil {
		t.Fatal("run against future-version worker succeeded")
	}
	// The version mismatch never crosses into a merge; the run dies on the
	// deadline with the worker permanently unhealthy, which is the point.
}

func TestDiscoverPartitionsErrors(t *testing.T) {
	if _, err := dist.DiscoverPartitions(t.TempDir()); err == nil {
		t.Error("empty dir: want error")
	}
}

// TestWritePartitionsRejectsStale: a directory left by a larger run must not
// leak its extra partitions into a smaller one; rewriting the same count is
// fine.
func TestWritePartitionsRejectsStale(t *testing.T) {
	t.Parallel()
	obsv := scenario(t, 1).Observations[:200]
	dir := t.TempDir()
	if _, err := dist.WritePartitions(obsv, dir, 5, analysis.FormatTSV); err != nil {
		t.Fatal(err)
	}
	parts, err := dist.WritePartitions(obsv, dir, 5, analysis.FormatTSV)
	if err != nil || len(parts) != 5 {
		t.Fatalf("rewrite 5 into 5: %d partitions, err %v", len(parts), err)
	}
	parts, err = dist.WritePartitions(obsv, dir, 3, analysis.FormatTSV)
	if err == nil {
		t.Fatalf("write 3 over 5: got %d partitions, want an error", len(parts))
	}
	for _, stale := range []string{"part-003.ssl.log", "part-004.ssl.log"} {
		if !strings.Contains(err.Error(), stale) {
			t.Errorf("error %q does not name %s", err, stale)
		}
	}
}
