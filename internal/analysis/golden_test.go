package analysis_test

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"testing"

	"certchains/internal/analysis"
	"certchains/internal/campus"
	"certchains/internal/chain"
	"certchains/internal/dga"
	"certchains/internal/intercept"
	"certchains/internal/trustdb"
)

// analysisStateGolden pins the sealed certchains/analysis-partial bytes. The
// fixture has no update flag on purpose: a codec change that moves a byte
// must arrive as an explicit, reviewed fixture change (and, if the format
// really changed, a StateVersion bump).
const analysisStateGolden = "testdata/state-analysis-partial.json"

// analysisStateAllKeys pins the same format over allKeysObservations, whose
// partial fills every one of partialKeys.
const analysisStateAllKeys = "testdata/state-analysis-allkeys.json"

// partialKeys are the partial's 30 wire keys in encoding order.
var partialKeys = []string{
	"table2", "table3", "table6", "table7", "table8", "sec42",
	"single_stats", "intercept_single", "sec63", "figure1", "figure6",
	"ip_sets", "est_by_verdict", "hybrid_graph", "nonpub_graph",
	"intercept_graph", "detected", "sector_conns", "sector_ips", "port_hist",
	"hybrid_server_chains", "missing_issuer_ips", "dga", "bc_seen",
	"bc_absent", "single_conns", "single_no_sni", "excluded", "chains", "lint",
}

// TestAnalysisStateGolden encodes stateFixtureObservations through a linting
// pipeline — so the lint accumulator's snapshot is pinned too — and requires
// the fixture's exact bytes, both from scratch and after a decode→re-encode
// round trip.
func TestAnalysisStateGolden(t *testing.T) {
	s := generate(t, 1)
	checkStateGolden(t, analysisStateGolden, lintingPipeline(s), stateFixtureObservations(s))
}

// TestAnalysisStateGoldenAllKeys is TestAnalysisStateGolden over a state that
// writes all 30 partial keys, each with a non-empty value, in the order of
// partialKeys.
func TestAnalysisStateGoldenAllKeys(t *testing.T) {
	s := generate(t, 1)
	p := lintingPipeline(s)
	want := checkStateGolden(t, analysisStateAllKeys, p, allKeysObservations(s, p))

	var sealed struct {
		Payload struct {
			Partial json.RawMessage `json:"partial"`
		} `json:"payload"`
	}
	if err := json.Unmarshal(want, &sealed); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(sealed.Payload.Partial))
	var keys []string
	if _, err := dec.Token(); err != nil { // {
		t.Fatal(err)
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
		key := tok.(string)
		keys = append(keys, key)
		switch string(v) {
		case "null", "0", "{}", "[]":
			t.Errorf("partial key %q is empty: %s", key, v)
		}
	}
	if !slices.Equal(keys, partialKeys) {
		t.Errorf("partial keys = %v\nwant %v", keys, partialKeys)
	}
}

// checkStateGolden encodes obs through p and requires the fixture at path
// byte for byte, from scratch and after a decode→re-encode round trip. It
// returns the fixture.
func checkStateGolden(t *testing.T, path string, p *analysis.Pipeline, obs []*campus.Observation) []byte {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	acc := p.NewAccumulator()
	for _, o := range obs {
		acc.Observe(o)
	}
	got, err := acc.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("EncodeState differs from %s (%d bytes, want %d)", path, len(got), len(want))
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
		t.Errorf("DecodeState→EncodeState differs from %s (%d bytes, want %d)", path, len(re), len(want))
	}
	return want
}

// allKeysObservations picks, in scenario order, the first observation of
// each kind below, plus the shortest over-long (Figure 1 outlier) non-public
// chain: together they fill every partial key, including the ones
// stateFixtureObservations never writes (hybrid taxonomy, single non-public
// chains, outliers).
func allKeysObservations(s *campus.Scenario, p *analysis.Pipeline) []*campus.Observation {
	det := intercept.Detector{DB: p.DB, CT: p.CT}
	type kind func(o *campus.Observation, a *chain.Analysis) bool
	hybrid := func(hc chain.HybridCategory) kind {
		return func(o *campus.Observation, a *chain.Analysis) bool {
			return a.Category == chain.Hybrid && chain.ClassifyHybrid(a) == hc
		}
	}
	nonPub := func(o *campus.Observation, a *chain.Analysis) bool {
		return a.Category == chain.NonPublicDBOnly && len(o.Chain) <= 30
	}
	kinds := []kind{
		func(o *campus.Observation, a *chain.Analysis) bool { return a.Category == chain.PublicDBOnly },
		hybrid(chain.HybridCompleteNonPubToPub),
		hybrid(chain.HybridContainsComplete),
		hybrid(chain.HybridNoComplete),
		func(o *campus.Observation, a *chain.Analysis) bool {
			if !hybrid(chain.HybridNoComplete)(o, a) || len(o.ClientIPs) == 0 || a.Classes[0] != trustdb.IssuedByPublicDB {
				return false
			}
			for _, m := range o.Chain[1:] {
				if m.SubjectKey() == o.Chain[0].IssuerKey() {
					return false
				}
			}
			return true
		},
		func(o *campus.Observation, a *chain.Analysis) bool {
			return nonPub(o, a) && len(o.Chain) == 1 && o.NoSNI > 0
		},
		func(o *campus.Observation, a *chain.Analysis) bool {
			return nonPub(o, a) && len(o.Chain) == 1 && dga.IsDGACertificate(o.Chain[0])
		},
		func(o *campus.Observation, a *chain.Analysis) bool { return nonPub(o, a) && len(o.Chain) > 1 },
		func(o *campus.Observation, a *chain.Analysis) bool {
			return a.Category == chain.Interception && len(o.Chain) == 1
		},
		func(o *campus.Observation, a *chain.Analysis) bool {
			return a.Category == chain.Interception && len(o.Chain) > 1 && o.Domain != "" &&
				det.Examine(o.Chain[0], o.Domain, o.First) == intercept.IssuerMismatch
		},
	}
	picked := make([]bool, len(s.Observations))
	var tls13, outlier = -1, -1
	for i, o := range s.Observations {
		if o.TLS13 || len(o.Chain) == 0 {
			if tls13 < 0 {
				tls13 = i
			}
			continue
		}
		a := p.Classifier.Analyze(o.Chain)
		if a.Category == chain.NonPublicDBOnly && len(o.Chain) > 30 &&
			(outlier < 0 || len(o.Chain) < len(s.Observations[outlier].Chain)) {
			outlier = i
		}
		for k, match := range kinds {
			if match != nil && match(o, a) {
				picked[i], kinds[k] = true, nil
			}
		}
	}
	picked[tls13], picked[outlier] = true, true
	var out []*campus.Observation
	for i, o := range s.Observations {
		if picked[i] {
			out = append(out, o)
		}
	}
	return out
}
