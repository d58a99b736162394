// Equivalence and robustness suite for the exported Accumulator — the shard
// lifecycle the distributed topology runs across process boundaries:
// observe partitions, encode, decode on the other side, rebase, merge,
// finalize. The wire form is adversarial input to the coordinator, so the
// decoder is also fuzzed (FuzzPartialSnapshotDecode, laws_test.go):
// malformed bytes must error, never panic.
package analysis_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"testing"

	"certchains/internal/analysis"
	"certchains/internal/campus"
	"certchains/internal/certmodel"
	"certchains/internal/chain"
)

// partitionObservations splits the observation slice into n contiguous
// partitions, mirroring how the coordinator splits a capture into worker
// inputs.
func partitionObservations(obs []*campus.Observation, n int) [][]*campus.Observation {
	parts := make([][]*campus.Observation, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := len(obs)*i/n, len(obs)*(i+1)/n
		parts = append(parts, obs[lo:hi])
	}
	return parts
}

// TestAccumulatorWireEquivalence runs the full distributed shard lifecycle
// in miniature: per-partition accumulators are encoded, decoded by a second
// pipeline instance (the "coordinator"), rebased by the cumulative
// observation counts, merged in partition order, and finalized. The result
// must be byte-identical to the sequential run over the concatenated
// observations, and the encoding itself must be byte-stable.
func TestAccumulatorWireEquivalence(t *testing.T) {
	seeds := []int64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			s := generate(t, seed)
			worker := lintingPipeline(s)
			coord := lintingPipeline(s)
			baseText, baseJSON := renderings(t, worker.RunParallel(s.Observations, 1))

			for _, parts := range []int{1, 3, 5} {
				t.Run(fmt.Sprintf("parts%d", parts), func(t *testing.T) {
					merged := coord.NewAccumulator()
					var base int64
					for i, part := range partitionObservations(s.Observations, parts) {
						acc := worker.NewAccumulator()
						for _, o := range part {
							acc.Observe(o)
						}
						if got := acc.Observations(); got != int64(len(part)) {
							t.Fatalf("partition %d: Observations() = %d, want %d", i, got, len(part))
						}
						wire, err := acc.EncodeState()
						if err != nil {
							t.Fatal(err)
						}
						again, err := acc.EncodeState()
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(wire, again) {
							t.Fatalf("partition %d: EncodeState is not byte-stable", i)
						}
						restored, err := coord.DecodeState(wire)
						if err != nil {
							t.Fatalf("partition %d: %v", i, err)
						}
						restored.OffsetSeq(base)
						base += restored.Observations()
						merged.Merge(restored)
					}
					text, js := renderings(t, merged.Finalize())
					if text != baseText {
						t.Errorf("parts=%d: rendered report differs from sequential", parts)
					}
					if !bytes.Equal(js, baseJSON) {
						t.Errorf("parts=%d: JSON export differs from sequential", parts)
					}
				})
			}
		})
	}
}

// TestDecodeStateRejectsForeign pins the wire versioning: state sealed under
// another schema revision — or not sealed at all — must surface the typed
// schema error.
func TestDecodeStateRejectsForeign(t *testing.T) {
	s := generate(t, 1)
	p := lintingPipeline(s)
	future, err := certmodel.Seal(analysis.StateSchema, analysis.StateVersion+1, map[string]int{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"future version", future},
		{"unversioned JSON", []byte(`{"observations":3,"partial":null}`)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := p.DecodeState(tc.data)
			var se *certmodel.SchemaError
			if !errors.As(err, &se) {
				t.Fatalf("DecodeState err = %v, want *certmodel.SchemaError", err)
			}
		})
	}
	if _, err := p.DecodeState([]byte("not json")); err == nil {
		t.Fatal("garbage bytes decoded without error")
	}
}

// stateFixtureObservations is the input of testdata/state-sector-issuers.json:
// seed 1's first 12 interception observations with a chain and its first 24
// others, in scenario order.
func stateFixtureObservations(s *campus.Scenario) []*campus.Observation {
	var out []*campus.Observation
	icpt, other := 0, 0
	for _, o := range s.Observations {
		n, limit := &other, 24
		if o.Category == chain.Interception && !o.TLS13 {
			n, limit = &icpt, 12
		}
		if *n < limit {
			*n++
			out = append(out, o)
		}
	}
	return out
}

// TestDecodeStateWithSectorIssuers decodes state encoded before the
// accumulator dropped its unused sector_issuers sets (the fixture carries a
// non-empty one): the stale key is ignored and the report is unchanged.
func TestDecodeStateWithSectorIssuers(t *testing.T) {
	blob, err := os.ReadFile("testdata/state-sector-issuers.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(blob, []byte(`"sector_issuers"`)) {
		t.Fatal("fixture lost its sector_issuers key")
	}
	s := generate(t, 1)
	p := analysis.FromScenario(s)
	fresh := p.NewAccumulator()
	for _, o := range stateFixtureObservations(s) {
		fresh.Observe(o)
	}
	restored, err := p.DecodeState(blob)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Observations() != fresh.Observations() {
		t.Fatalf("fixture holds %d observations, fresh pass %d", restored.Observations(), fresh.Observations())
	}
	wantText, wantJSON := renderings(t, fresh.Finalize())
	gotText, gotJSON := renderings(t, restored.Finalize())
	if gotText != wantText {
		t.Error("rendered report from legacy state differs from a fresh pass")
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Error("JSON export from legacy state differs from a fresh pass")
	}
}

// TestDecodeStateAcrossLinters decodes state under a pipeline whose linter
// setting differs from the encoder's: linting state decoded without a linter
// finalizes with no lint summary and an otherwise unchanged report, and
// state without lint decoded under a linter finalizes with an empty summary.
func TestDecodeStateAcrossLinters(t *testing.T) {
	s := generate(t, 1)
	plain, linting := analysis.FromScenario(s), lintingPipeline(s)
	encode := func(p *analysis.Pipeline) []byte {
		acc := p.NewAccumulator()
		for _, o := range stateFixtureObservations(s) {
			acc.Observe(o)
		}
		data, err := acc.EncodeState()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	decode := func(p *analysis.Pipeline, data []byte) *analysis.Report {
		acc, err := p.DecodeState(data)
		if err != nil {
			t.Fatal(err)
		}
		return acc.Finalize()
	}

	unlinted := decode(plain, encode(linting))
	if unlinted.Lint != nil {
		t.Errorf("linting state decoded without a linter has a lint summary: %+v", unlinted.Lint)
	}
	wantText, wantJSON := renderings(t, decode(plain, encode(plain)))
	gotText, gotJSON := renderings(t, unlinted)
	if gotText != wantText || !bytes.Equal(gotJSON, wantJSON) {
		t.Error("linting state decoded without a linter reports differently from plain state")
	}

	linted := decode(linting, encode(plain))
	if linted.Lint == nil {
		t.Fatal("plain state decoded under a linter has no lint summary")
	}
	if linted.Lint.Chains != 0 || linted.Lint.Observations != 0 {
		t.Errorf("plain state decoded under a linter: %d chains, %d observations; want an empty summary",
			linted.Lint.Chains, linted.Lint.Observations)
	}
}
