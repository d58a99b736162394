package analysis_test

import (
	"bytes"
	"os"
	"testing"
)

// analysisStateGolden pins the sealed certchains/analysis-partial bytes. The
// fixture has no update flag on purpose: a codec change that moves a byte
// must arrive as an explicit, reviewed fixture change (and, if the format
// really changed, a StateVersion bump).
const analysisStateGolden = "testdata/state-analysis-partial.json"

// TestAnalysisStateGolden encodes stateFixtureObservations through a linting
// pipeline — so the lint accumulator's snapshot is pinned too — and requires
// the fixture's exact bytes, both from scratch and after a decode→re-encode
// round trip.
func TestAnalysisStateGolden(t *testing.T) {
	want, err := os.ReadFile(analysisStateGolden)
	if err != nil {
		t.Fatal(err)
	}
	s := generate(t, 1)
	p := lintingPipeline(s)
	acc := p.NewAccumulator()
	for _, o := range stateFixtureObservations(s) {
		acc.Observe(o)
	}
	got, err := acc.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("EncodeState differs from %s (%d bytes, want %d)", analysisStateGolden, len(got), len(want))
	}
	dec, err := p.DecodeState(want)
	if err != nil {
		t.Fatal(err)
	}
	re, err := dec.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, want) {
		t.Errorf("DecodeState→EncodeState differs from %s (%d bytes, want %d)", analysisStateGolden, len(re), len(want))
	}
}
