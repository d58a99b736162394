// Equivalence suite for the windowed incremental layer: folding observations
// through a WindowRing — in batches, across buckets, through spill eviction,
// and across snapshot/restore — must reproduce the batch pipeline's report
// byte for byte.
package analysis_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"certchains/internal/analysis"
	"certchains/internal/campus"
)

// obsSpan returns the earliest and latest observation timestamps.
func obsSpan(obs []*campus.Observation) (lo, hi time.Time) {
	for i, o := range obs {
		if i == 0 || o.Last.Before(lo) {
			lo = o.Last
		}
		if i == 0 || o.Last.After(hi) {
			hi = o.Last
		}
	}
	return lo, hi
}

// feedChunks folds observations in fixed-size batches, as the daemon's poll
// loop would.
func feedChunks(ring *analysis.WindowRing, obs []*campus.Observation, n int) {
	for i := 0; i < len(obs); i += n {
		ring.ObserveBatch(obs[i:min(i+n, len(obs))])
	}
}

// TestWindowRingMatchesBatch: the ring's all-time report must be
// byte-identical to the batch pipeline over the same observations — with the
// whole scenario in one bucket, and with observations scattered across many
// buckets with forced spill eviction.
func TestWindowRingMatchesBatch(t *testing.T) {
	s := generate(t, 1)
	p := lintingPipeline(s)
	baseText, baseJSON := renderings(t, p.RunParallel(s.Observations, 1))

	lo, hi := obsSpan(s.Observations)
	span := hi.Sub(lo)
	cases := []struct {
		name string
		cfg  analysis.WindowConfig
	}{
		{"one-bucket", analysis.WindowConfig{Interval: 2*span + time.Hour, Buckets: 4, Workers: 3}},
		{"many-buckets-spill", analysis.WindowConfig{Interval: span/16 + 1, Buckets: 4, Workers: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ring := analysis.NewWindowRing(p, tc.cfg)
			feedChunks(ring, s.Observations, 37)
			if ring.Seq() != len(s.Observations) {
				t.Fatalf("Seq = %d, want %d", ring.Seq(), len(s.Observations))
			}
			// Reporting must not perturb live state: render a trailing window
			// first, then all time twice.
			ring.Report(tc.cfg.Interval)
			text, js := renderings(t, ring.Report(0))
			if text != baseText {
				t.Errorf("all-time report differs from batch (len %d vs %d)", len(text), len(baseText))
			}
			if !bytes.Equal(js, baseJSON) {
				t.Error("all-time JSON differs from batch")
			}
			if again, _ := renderings(t, ring.Report(0)); again != text {
				t.Error("second Report(0) differs from the first — reporting mutated state")
			}
		})
	}
}

// TestWindowRingTrailingWindow: a trailing-window report must equal the batch
// pipeline run over exactly the observations whose bucket falls inside the
// window.
func TestWindowRingTrailingWindow(t *testing.T) {
	s := generate(t, 1)
	p := lintingPipeline(s)

	lo, hi := obsSpan(s.Observations)
	interval := hi.Sub(lo)/6 + 1
	cfg := analysis.WindowConfig{Interval: interval, Buckets: 1000, Workers: 2}
	ring := analysis.NewWindowRing(p, cfg)
	feedChunks(ring, s.Observations, 53)

	floorDiv := func(a, b int64) int64 {
		q := a / b
		if a%b != 0 && (a < 0) != (b < 0) {
			q--
		}
		return q
	}
	window := 2 * interval
	minIdx := floorDiv(hi.UnixNano(), int64(interval)) - 1
	var want []*campus.Observation
	for _, o := range s.Observations {
		if floorDiv(o.Last.UnixNano(), int64(interval)) >= minIdx {
			want = append(want, o)
		}
	}
	if len(want) == 0 || len(want) == len(s.Observations) {
		t.Fatalf("degenerate window: %d of %d observations", len(want), len(s.Observations))
	}
	wantText, wantJSON := renderings(t, p.RunParallel(want, 1))
	text, js := renderings(t, ring.Report(window))
	if text != wantText {
		t.Errorf("trailing window (%d obs) differs from filtered batch", len(want))
	}
	if !bytes.Equal(js, wantJSON) {
		t.Error("trailing window JSON differs from filtered batch")
	}
}

// TestWindowRingConcurrentReports pins the ring's reader contract: on a
// populated ring (spilled history, live buckets, provisional extras),
// concurrent ReportWith calls, all-time and windowed, render the same bytes
// as a sequential call. Under -race it also shows that the readers write
// nothing they share.
func TestWindowRingConcurrentReports(t *testing.T) {
	s := generate(t, 1)
	p := lintingPipeline(s)
	lo, hi := obsSpan(s.Observations)
	interval := hi.Sub(lo)/16 + 1
	ring := analysis.NewWindowRing(p, analysis.WindowConfig{Interval: interval, Buckets: 4, Workers: 2})
	cut := len(s.Observations) * 9 / 10
	feedChunks(ring, s.Observations[:cut], 37)
	extra := s.Observations[cut:]

	windows := []time.Duration{0, 2 * interval}
	wantText := make([]string, len(windows))
	wantJSON := make([][]byte, len(windows))
	for i, w := range windows {
		wantText[i], wantJSON[i] = renderings(t, ring.ReportWith(extra, w))
	}
	if wantText[0] == wantText[1] {
		t.Fatal("degenerate ring: the trailing window covers all time")
	}

	const readers, rounds = 4, 3
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds*len(windows); i++ {
				k := (r + i) % len(windows)
				rep := ring.ReportWith(extra, windows[k])
				js, err := rep.JSON()
				if err != nil {
					t.Error(err)
					return
				}
				if rep.Render() != wantText[k] || !bytes.Equal(js, wantJSON[k]) {
					t.Errorf("reader %d: concurrent report of window %v differs from the sequential one", r, windows[k])
				}
			}
		}(r)
	}
	wg.Wait()
}

// TestWindowSnapshotEquivalence is the satellite #4 guarantee: ingest N,
// snapshot, restore, ingest M more — the final report must be byte-identical
// to ingesting N+M in one uninterrupted run (which itself matches the batch
// pipeline), across seeds and worker widths. The snapshot also round-trips
// through JSON canonically: re-marshaling a restored ring reproduces the
// original bytes, even when the restart configures another interval.
func TestWindowSnapshotEquivalence(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			s := generate(t, seed)
			p := lintingPipeline(s)
			baseText, baseJSON := renderings(t, p.RunParallel(s.Observations, 1))

			lo, hi := obsSpan(s.Observations)
			interval := hi.Sub(lo)/10 + 1
			split := len(s.Observations) / 2

			for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
				cfg := analysis.WindowConfig{Interval: interval, Buckets: 6, Workers: workers}

				ring := analysis.NewWindowRing(p, cfg)
				feedChunks(ring, s.Observations[:split], 41)

				data, err := json.Marshal(ring.Snapshot())
				if err != nil {
					t.Fatal(err)
				}
				if again, _ := json.Marshal(ring.Snapshot()); !bytes.Equal(data, again) {
					t.Fatalf("workers=%d: snapshot encoding is not canonical", workers)
				}

				var snap analysis.WindowRingSnapshot
				if err := json.Unmarshal(data, &snap); err != nil {
					t.Fatal(err)
				}
				// The snapshot's interval wins over a restart's configured
				// one, which would otherwise split its buckets.
				restartCfg := cfg
				restartCfg.Interval = 3 * interval
				restored, err := analysis.RestoreWindowRing(p, restartCfg, &snap)
				if err != nil {
					t.Fatal(err)
				}
				if resnap, _ := json.Marshal(restored.Snapshot()); !bytes.Equal(data, resnap) {
					t.Errorf("workers=%d: restored ring re-snapshots differently", workers)
				}
				if restored.Seq() != split {
					t.Fatalf("workers=%d: restored Seq = %d, want %d", workers, restored.Seq(), split)
				}

				feedChunks(restored, s.Observations[split:], 41)
				text, js := renderings(t, restored.Report(0))
				if text != baseText {
					t.Errorf("workers=%d: post-restore report differs from batch (len %d vs %d)",
						workers, len(text), len(baseText))
				}
				if !bytes.Equal(js, baseJSON) {
					t.Errorf("workers=%d: post-restore JSON differs from batch", workers)
				}
			}
		})
	}
}
