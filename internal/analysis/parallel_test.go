// Equivalence suite for the sharded pipeline: any worker count — and the
// streaming entry point — must reproduce the sequential report byte for
// byte, and the paper verification must keep passing at every width.
//
// The suite lives in an external test package so it can drive the pipeline
// through the same surface the CLI uses (analysis + paper), which an
// in-package test could not import without a cycle.
package analysis_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"certchains/internal/analysis"
	"certchains/internal/campus"
	"certchains/internal/lint"
	"certchains/internal/obs"
	"certchains/internal/paper"
)

// equivScale matches the bench/test scale that preserves every structural
// absolute of the paper (321 hybrids, 80 interception issuers, ...).
const equivScale = 0.002

// generate builds the scenario for one seed at the shared scale.
func generate(tb testing.TB, seed int64) *campus.Scenario {
	tb.Helper()
	cfg := campus.DefaultConfig()
	cfg.Seed = seed
	cfg.Scale = equivScale
	s, err := campus.Generate(cfg)
	if err != nil {
		tb.Fatalf("seed %d: %v", seed, err)
	}
	return s
}

// lintingPipeline builds the scenario pipeline with corpus linting enabled
// at the scenario's collection end, so the equivalence assertions below also
// cover the lint accumulator's merge contract.
func lintingPipeline(s *campus.Scenario) *analysis.Pipeline {
	p := analysis.FromScenario(s)
	p.Linter = lint.New(s.Classifier, lint.Config{Now: s.End(), Profile: lint.ProfileAll})
	return p
}

// workerCounts is the sweep the issue prescribes. GOMAXPROCS may coincide
// with an explicit entry; the duplicate run is harmless.
func workerCounts() []int {
	return []int{1, 2, 4, 8, runtime.GOMAXPROCS(0)}
}

// renderings captures every externally visible form of a report.
func renderings(tb testing.TB, r *analysis.Report) (text string, js []byte) {
	tb.Helper()
	js, err := r.JSON()
	if err != nil {
		tb.Fatal(err)
	}
	return r.Render(), js
}

// TestParallelEquivalence is the core determinism guarantee: for several
// seeds, every worker count yields a report whose rendered text and JSON
// export are byte-identical to the sequential (workers=1) run, and the
// paper-vs-measured verification passes at every width.
func TestParallelEquivalence(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			s := generate(t, seed)
			p := lintingPipeline(s)

			baseline := p.RunParallel(s.Observations, 1)
			baseText, baseJSON := renderings(t, baseline)

			rr := analysis.AnalyzeRevisit(s.Classifier, s.Revisit, "Lets Encrypt")
			for _, c := range paper.VerifyRevisit(rr) {
				if !c.Pass {
					t.Errorf("seed %d revisit check failed: %v", seed, c)
				}
			}

			for _, w := range workerCounts() {
				r := p.RunParallel(s.Observations, w)
				text, js := renderings(t, r)
				if text != baseText {
					t.Errorf("seed %d workers=%d: rendered report differs from sequential (len %d vs %d)",
						seed, w, len(text), len(baseText))
				}
				if !bytes.Equal(js, baseJSON) {
					t.Errorf("seed %d workers=%d: JSON export differs from sequential", seed, w)
				}
				failed := 0
				for _, c := range paper.Verify(r) {
					if !c.Pass {
						failed++
						t.Errorf("seed %d workers=%d: paper check failed: %v", seed, w, c)
					}
				}
				if failed == 0 && testing.Verbose() {
					t.Logf("seed %d workers=%d: report identical, all paper checks pass", seed, w)
				}
			}
		})
	}
}

// TestOrderIndependence: the report is a function of the observation set,
// not of its order. A log writer may emit observations in any order (Zeek's
// is connection time), so the observations in generation order, reversed
// and shuffled must render and export byte for byte alike, lint included.
func TestOrderIndependence(t *testing.T) {
	for _, seed := range []int64{1, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			s := generate(t, seed)
			p := lintingPipeline(s)
			wantText, wantJSON := renderings(t, p.Run(s.Observations))

			reversed := slices.Clone(s.Observations)
			slices.Reverse(reversed)
			shuffled := slices.Clone(s.Observations)
			rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) {
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			})
			for name, obs := range map[string][]*campus.Observation{"reversed": reversed, "shuffled": shuffled} {
				text, js := renderings(t, p.Run(obs))
				if text != wantText {
					t.Errorf("%s observations: rendered report differs", name)
				}
				if !bytes.Equal(js, wantJSON) {
					t.Errorf("%s observations: JSON export differs", name)
				}
			}
		})
	}
}

// manifestFor builds the provenance record a traced equivalence run would
// emit, exactly as the CLI assembles it: stage aggregates from the tracer,
// report digest over the JSON export.
func manifestFor(tb testing.TB, seed int64, workers int, tracer *obs.Tracer, js []byte) *obs.Manifest {
	tb.Helper()
	return &obs.Manifest{
		Tool:         "equivalence-suite",
		Seed:         seed,
		Scale:        equivScale,
		Workers:      workers,
		Stages:       tracer.Stages(),
		ReportSHA256: obs.SHA256Hex(js),
		WallNS:       tracer.WallNS(),
		Build:        obs.Build(),
	}
}

// TestManifestSubsetEquivalence extends the byte-identity contract to run
// provenance: for several seeds, the deterministic subset of a traced run's
// manifest must be byte-identical at every worker width — stage record
// counts are a pure function of the input even though span counts and wall
// times are not — and every trace must validate with one span per declared
// pipeline stage.
func TestManifestSubsetEquivalence(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			s := generate(t, seed)
			p := lintingPipeline(s)

			run := func(w int) ([]byte, *obs.Tracer) {
				tracer := obs.NewTracer()
				p.Tracer = tracer
				defer func() { p.Tracer = nil }()
				r := p.RunParallel(s.Observations, w)
				_, js := renderings(t, r)
				sub, err := manifestFor(t, seed, w, tracer, js).DeterministicSubset()
				if err != nil {
					t.Fatalf("workers=%d: subset: %v", w, err)
				}
				return sub, tracer
			}

			baseSub, baseTracer := run(1)
			// The sequential run also shards (one shard), so the stage set is
			// width-invariant by construction.
			var trace bytes.Buffer
			if err := baseTracer.WriteChromeTrace(&trace); err != nil {
				t.Fatal(err)
			}
			if err := obs.ValidateChromeTrace(trace.Bytes(), "observe", "observe-shard", "merge", "finalize"); err != nil {
				t.Errorf("workers=1 trace: %v", err)
			}

			for _, w := range workerCounts() {
				sub, tracer := run(w)
				if !bytes.Equal(sub, baseSub) {
					t.Errorf("seed %d workers=%d: deterministic manifest subset differs:\n%s\nvs\n%s",
						seed, w, sub, baseSub)
				}
				var tb bytes.Buffer
				if err := tracer.WriteChromeTrace(&tb); err != nil {
					t.Fatal(err)
				}
				if err := obs.ValidateChromeTrace(tb.Bytes(), "observe", "observe-shard", "merge", "finalize"); err != nil {
					t.Errorf("seed %d workers=%d trace: %v", seed, w, err)
				}
			}
		})
	}
}

// TestAccumulateStreamEquivalence feeds the same observations through the
// streaming producer path and checks it matches the in-memory run at several
// widths.
func TestAccumulateStreamEquivalence(t *testing.T) {
	s := generate(t, 1)
	p := lintingPipeline(s)
	baseline := p.RunParallel(s.Observations, 1)
	baseText, baseJSON := renderings(t, baseline)

	counts := workerCounts()
	if testing.Short() {
		counts = []int{runtime.GOMAXPROCS(0)}
	}
	for _, w := range counts {
		text, js := renderings(t, accumulateStream(p, s.Observations, w))
		if text != baseText {
			t.Errorf("AccumulateStream workers=%d: rendered report differs from sequential", w)
		}
		if !bytes.Equal(js, baseJSON) {
			t.Errorf("AccumulateStream workers=%d: JSON export differs from sequential", w)
		}
	}
}

// TestZeekStreamEquivalence round-trips a scenario through the Zeek log
// writer and back via the streaming loader into AccumulateStream — the dist
// partition path — and checks the report matches the in-memory sequential
// run over the loader's observation order.
func TestZeekStreamEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("zeek round-trip is not short-mode work")
	}
	s := generate(t, 2)
	p := lintingPipeline(s)

	var ssl, x509 bytes.Buffer
	if err := campus.Replay(s.Observations, &ssl, &x509, campus.ReplayOptions{MaxConnsPerObservation: 4}); err != nil {
		t.Fatal(err)
	}

	// Sequential baseline over the loader's own order: materialize once.
	loaded, err := analysis.Load(bytes.NewReader(ssl.Bytes()), bytes.NewReader(x509.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	baseline := p.RunParallel(loaded, 1)
	baseText, baseJSON := renderings(t, baseline)

	ch := make(chan *campus.Observation, 64)
	loadErr := make(chan error, 1)
	go func() {
		defer close(ch)
		loadErr <- analysis.LoadFormatFunc(analysis.FormatTSV,
			bytes.NewReader(ssl.Bytes()), bytes.NewReader(x509.Bytes()),
			func(o *campus.Observation) error {
				ch <- o
				return nil
			})
	}()
	r := finalizeTraced(p, p.AccumulateStream(ch, runtime.GOMAXPROCS(0)))
	if err := <-loadErr; err != nil {
		t.Fatal(err)
	}
	text, js := renderings(t, r)
	if text != baseText {
		t.Error("streamed Zeek report differs from sequential load")
	}
	if !bytes.Equal(js, baseJSON) {
		t.Error("streamed Zeek JSON differs from sequential load")
	}
}

// TestConcurrentPipelineSmoke is the short-mode race smoke test: several
// full parallel pipeline runs execute at once over a shared scenario
// (shared trust DB, CT log, classifier, and interception registry), which
// exercises every concurrently-read structure under the race detector.
func TestConcurrentPipelineSmoke(t *testing.T) {
	s := generate(t, 1)
	p := lintingPipeline(s)
	want, _ := renderings(t, p.RunParallel(s.Observations, 1))

	const runs = 4
	var wg sync.WaitGroup
	texts := make([]string, runs)
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := p.RunParallel(s.Observations, runtime.GOMAXPROCS(0))
			texts[i] = r.Render()
		}(i)
	}
	wg.Wait()
	for i, text := range texts {
		if text != want {
			t.Errorf("concurrent run %d produced a different report", i)
		}
	}
}
