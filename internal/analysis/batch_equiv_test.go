// Batch-axis equivalence suite: the batched handoff (Pipeline.Batch and the
// batch-native accumulation entry points) must reproduce the per-record
// sequential report byte for byte — rendered text, JSON export, and the
// deterministic manifest subset — at every batch size, worker width, and
// seed, including under injected read faults that cut batches mid-read.
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

// TestBatchSizeEquivalence drives both batched entry points — RunStream with
// Pipeline.Batch set (internal re-chunking) and AccumulateBatches over
// pre-chunked slices — across the batch-size axis and checks both renderings
// against the per-record sequential baseline.
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

			for _, b := range batchSizes {
				for _, w := range widths {
					p.Batch = b
					r := p.RunStream(feedObservations(s.Observations), w)
					text, js := renderings(t, r)
					if text != baseText {
						t.Errorf("seed %d batch=%d workers=%d: RunStream report differs from per-record baseline", seed, b, w)
					}
					if !bytes.Equal(js, baseJSON) {
						t.Errorf("seed %d batch=%d workers=%d: RunStream JSON differs", seed, b, w)
					}

					r = p.AccumulateBatches(feedBatches(s.Observations, b), w).Finalize()
					text, js = renderings(t, r)
					if text != baseText {
						t.Errorf("seed %d batch=%d workers=%d: AccumulateBatches report differs from per-record baseline", seed, b, w)
					}
					if !bytes.Equal(js, baseJSON) {
						t.Errorf("seed %d batch=%d workers=%d: AccumulateBatches JSON differs", seed, b, w)
					}
				}
			}
			p.Batch = 0
		})
	}
}

// TestBatchManifestSubsetEquivalence extends the manifest byte-identity
// contract across the batch axis: the deterministic subset of a traced
// batched run must match the per-record sequential run, and every trace must
// validate with the full pipeline stage set.
func TestBatchManifestSubsetEquivalence(t *testing.T) {
	const seed = int64(1)
	s := generate(t, seed)
	p := lintingPipeline(s)

	run := func(b, w int) []byte {
		tracer := obs.NewTracer()
		p.Tracer = tracer
		p.Batch = b
		defer func() { p.Tracer = nil; p.Batch = 0 }()
		var r *analysis.Report
		if b == 0 {
			r = p.RunParallel(s.Observations, w)
		} else {
			r = p.RunStream(feedObservations(s.Observations), w)
		}
		_, js := renderings(t, r)
		sub, err := manifestFor(t, seed, w, tracer, js).DeterministicSubset()
		if err != nil {
			t.Fatalf("batch=%d workers=%d: subset: %v", b, w, err)
		}
		var trace bytes.Buffer
		if err := tracer.WriteChromeTrace(&trace); err != nil {
			t.Fatal(err)
		}
		if err := obs.ValidateChromeTrace(trace.Bytes(), "observe", "observe-shard", "merge", "finalize"); err != nil {
			t.Errorf("batch=%d workers=%d trace: %v", b, w, err)
		}
		return sub
	}

	baseSub := run(0, 1)
	for _, b := range batchSizes {
		if sub := run(b, 1); !bytes.Equal(sub, baseSub) {
			t.Errorf("batch=%d: deterministic manifest subset differs:\n%s\nvs\n%s", b, sub, baseSub)
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
	if err := analysis.Write(s.Observations, &ssl, &x509, analysis.WriteOptions{MaxConnsPerObservation: 4}); err != nil {
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
		p.Batch = b
		r := p.AccumulateBatches(feedBatches(faulted, b), runtime.GOMAXPROCS(0)).Finalize()
		text, js := renderings(t, r)
		if text != baseText {
			t.Errorf("batch=%d: chaos report differs from clean baseline", b)
		}
		if !bytes.Equal(js, baseJSON) {
			t.Errorf("batch=%d: chaos JSON differs from clean baseline", b)
		}
	}
	p.Batch = 0
}
