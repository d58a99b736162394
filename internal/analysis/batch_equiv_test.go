// Batch-axis equivalence suite: the batched handoff (caller-chosen batches
// through AccumulateBatches, and the internal DefaultBatch re-chunking behind
// RunParallel and AccumulateStream) must reproduce the sequential report
// byte for byte — rendered text, JSON export, and the deterministic manifest
// subset — at every batch size, worker width, and seed, including under
// injected read faults that cut batches mid-read.
package analysis_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"certchains/internal/analysis"
	"certchains/internal/campus"
	"certchains/internal/obs"
	"certchains/internal/resilience"
)

// batchSizes is the axis the issue prescribes: degenerate (1), odd and
// non-divisor (7), the default (64), and larger-than-stream (1024).
var batchSizes = []int{1, 7, 64, 1024}

// feedObservations streams a slice one observation at a time.
func feedObservations(obs []*campus.Observation) <-chan *campus.Observation {
	ch := make(chan *campus.Observation, 64)
	go func() {
		defer close(ch)
		for _, o := range obs {
			ch <- o
		}
	}()
	return ch
}

// feedBatches streams a slice pre-chunked into size-b batches.
func feedBatches(obs []*campus.Observation, b int) <-chan []*campus.Observation {
	ch := make(chan []*campus.Observation, 8)
	go func() {
		defer close(ch)
		for lo := 0; lo < len(obs); lo += b {
			hi := lo + b
			if hi > len(obs) {
				hi = len(obs)
			}
			ch <- obs[lo:hi]
		}
	}()
	return ch
}

// finalizeTraced finalizes under the pipeline's tracer, as Run does, so a
// traced run carries the full pipeline stage set.
func finalizeTraced(p *analysis.Pipeline, acc *analysis.Accumulator) *analysis.Report {
	fsp := p.Tracer.Start("finalize", "finalize")
	defer fsp.End()
	return acc.Finalize()
}

// accumulateBatches feeds a slice to AccumulateBatches in caller-chosen
// size-b batches and finalizes traced.
func accumulateBatches(p *analysis.Pipeline, observations []*campus.Observation, b, w int) *analysis.Report {
	return finalizeTraced(p, p.AccumulateBatches(feedBatches(observations, b), w))
}

// accumulateStream feeds a slice to AccumulateStream one observation at a
// time and finalizes traced.
func accumulateStream(p *analysis.Pipeline, observations []*campus.Observation, w int) *analysis.Report {
	return finalizeTraced(p, p.AccumulateStream(feedObservations(observations), w))
}

// tracedRun runs one entry point under a fresh tracer and returns the
// report's renderings and the run's deterministic manifest subset, failing
// the test if the trace lacks any pipeline stage.
func tracedRun(t *testing.T, p *analysis.Pipeline, seed int64, w int, run func() *analysis.Report) (string, []byte, []byte) {
	t.Helper()
	tracer := obs.NewTracer()
	p.Tracer = tracer
	defer func() { p.Tracer = nil }()
	text, js := renderings(t, run())
	sub, err := manifestFor(t, seed, w, tracer, js).DeterministicSubset()
	if err != nil {
		t.Fatalf("workers=%d: subset: %v", w, err)
	}
	var trace bytes.Buffer
	if err := tracer.WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace(trace.Bytes(), "observe", "observe-shard", "merge", "finalize"); err != nil {
		t.Errorf("workers=%d trace: %v", w, err)
	}
	return text, js, sub
}

// TestBatchSizeEquivalence drives AccumulateBatches over caller-chosen
// batches across the batch-size axis, and AccumulateStream over a per-record
// feed, at every width, and checks both renderings against the sequential
// baseline.
func TestBatchSizeEquivalence(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	widths := []int{1, runtime.GOMAXPROCS(0)}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			s := generate(t, seed)
			p := lintingPipeline(s)
			baseline := p.RunParallel(s.Observations, 1)
			baseText, baseJSON := renderings(t, baseline)
			check := func(r *analysis.Report, what string) {
				text, js := renderings(t, r)
				if text != baseText {
					t.Errorf("seed %d %s: report differs from sequential baseline", seed, what)
				}
				if !bytes.Equal(js, baseJSON) {
					t.Errorf("seed %d %s: JSON differs from sequential baseline", seed, what)
				}
			}

			for _, w := range widths {
				check(accumulateStream(p, s.Observations, w), fmt.Sprintf("AccumulateStream workers=%d", w))
				for _, b := range batchSizes {
					check(accumulateBatches(p, s.Observations, b, w), fmt.Sprintf("AccumulateBatches batch=%d workers=%d", b, w))
				}
			}
		})
	}
}

// TestBatchManifestSubsetEquivalence extends the manifest byte-identity
// contract across the batch axis: the deterministic subset of a traced
// batched run at every width must match the sequential run, and every trace
// must validate with the full pipeline stage set.
func TestBatchManifestSubsetEquivalence(t *testing.T) {
	const seed = int64(1)
	s := generate(t, seed)
	p := lintingPipeline(s)

	_, _, baseSub := tracedRun(t, p, seed, 1, func() *analysis.Report { return p.RunParallel(s.Observations, 1) })
	for _, b := range batchSizes {
		for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
			_, _, sub := tracedRun(t, p, seed, w, func() *analysis.Report { return accumulateBatches(p, s.Observations, b, w) })
			if !bytes.Equal(sub, baseSub) {
				t.Errorf("batch=%d workers=%d: deterministic manifest subset differs:\n%s\nvs\n%s", b, w, sub, baseSub)
			}
		}
	}
}

// TestSurplusWorkersEquivalence pins the pool with more workers than
// observations — including none at all — on every entry point: the workers
// without a batch contribute empty partials, and text, JSON and manifest
// subset still equal the width-1 run.
func TestSurplusWorkersEquivalence(t *testing.T) {
	const seed = int64(1)
	s := generate(t, seed)
	p := lintingPipeline(s)
	entries := []struct {
		name string
		run  func(observations []*campus.Observation, w int) *analysis.Report
	}{
		{"RunParallel", func(observations []*campus.Observation, w int) *analysis.Report {
			return p.RunParallel(observations, w)
		}},
		{"AccumulateStream", func(observations []*campus.Observation, w int) *analysis.Report {
			return accumulateStream(p, observations, w)
		}},
		{"AccumulateBatches", func(observations []*campus.Observation, w int) *analysis.Report {
			return accumulateBatches(p, observations, analysis.DefaultBatch, w)
		}},
	}
	for _, tc := range []struct {
		name    string
		obs     []*campus.Observation
		workers int
	}{
		{"0obs-8workers", nil, 8},
		{"3obs-8workers", s.Observations[:3], 8},
	} {
		for _, e := range entries {
			t.Run(tc.name+"/"+e.name, func(t *testing.T) {
				baseText, baseJSON, baseSub := tracedRun(t, p, seed, 1, func() *analysis.Report { return e.run(tc.obs, 1) })
				text, js, sub := tracedRun(t, p, seed, tc.workers, func() *analysis.Report { return e.run(tc.obs, tc.workers) })
				if text != baseText {
					t.Errorf("rendered report differs from width 1")
				}
				if !bytes.Equal(js, baseJSON) {
					t.Errorf("JSON export differs from width 1")
				}
				if !bytes.Equal(sub, baseSub) {
					t.Errorf("deterministic manifest subset differs from width 1:\n%s\nvs\n%s", sub, baseSub)
				}
			})
		}
	}
}

// TestBatchChaosShortRead is the chaos rung: the Zeek logs are read through
// the resilience fault seam with ShortRead faults cutting dozens of reads —
// including mid-record and mid-batch — while the observations flow through
// the batched pipeline. Short reads reorder I/O boundaries but preserve
// content, so the report must stay byte-identical to the clean run.
func TestBatchChaosShortRead(t *testing.T) {
	if testing.Short() {
		t.Skip("zeek round-trip is not short-mode work")
	}
	s := generate(t, 3)
	p := lintingPipeline(s)

	var ssl, x509 bytes.Buffer
	if err := campus.Replay(s.Observations, &ssl, &x509, campus.ReplayOptions{MaxConnsPerObservation: 4}); err != nil {
		t.Fatal(err)
	}

	load := func(plan *resilience.Plan) []*campus.Observation {
		var out []*campus.Observation
		sslR := plan.Reader("ssl", bytes.NewReader(ssl.Bytes()))
		x509R := plan.Reader("x509", bytes.NewReader(x509.Bytes()))
		err := analysis.LoadFormatFunc(analysis.FormatTSV, sslR, x509R,
			func(o *campus.Observation) error { out = append(out, o); return nil })
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		return out
	}

	clean := load(nil)
	baseline := p.RunParallel(clean, 1)
	baseText, baseJSON := renderings(t, baseline)

	// Cut the first 128 reads of both streams short — to 1, 3 or 7 bytes, or
	// to sizes that stop a read deep in a line — so the cuts run through the
	// first ~1.8 MB: across many of the decoder's 128 KiB blocks, not just
	// the first. Record and block boundaries must be stitched back together
	// no matter where the cuts land.
	if ssl.Len() < 2<<20 {
		t.Fatalf("ssl.log is %d bytes; the rung needs one spanning many decode blocks", ssl.Len())
	}
	const cutReads = 128
	plan := resilience.NewPlan()
	for attempt := 1; attempt <= cutReads; attempt++ {
		n := []int{1, 3, 7, 4093, 65521}[attempt%5]
		plan.Add(resilience.Fault{Op: "ssl", Attempt: attempt, Kind: resilience.ShortRead, N: n})
		plan.Add(resilience.Fault{Op: "x509", Attempt: attempt, Kind: resilience.ShortRead, N: n})
	}
	faulted := load(plan)
	if got := plan.InjectedByOp()["ssl"]; got != cutReads {
		t.Fatalf("chaos rung cut %d ssl reads, want %d", got, cutReads)
	}
	if len(faulted) != len(clean) {
		t.Fatalf("faulted load produced %d observations, clean %d", len(faulted), len(clean))
	}

	for _, b := range batchSizes {
		r := accumulateBatches(p, faulted, b, runtime.GOMAXPROCS(0))
		text, js := renderings(t, r)
		if text != baseText {
			t.Errorf("batch=%d: chaos report differs from clean baseline", b)
		}
		if !bytes.Equal(js, baseJSON) {
			t.Errorf("batch=%d: chaos JSON differs from clean baseline", b)
		}
	}
}
