package analysis

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"certchains/internal/campus"
	"certchains/internal/chain"
)

var (
	scenarioOnce sync.Once
	scenario     *campus.Scenario
	report       *Report
)

// sharedScenario generates one scenario + report reused by all tests in the
// package (generation and analysis dominate test time).
func sharedScenario(t *testing.T) (*campus.Scenario, *Report) {
	t.Helper()
	scenarioOnce.Do(func() {
		cfg := campus.DefaultConfig()
		cfg.Scale = 0.002
		s, err := campus.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		scenario = s
		report = FromScenario(s).Run(s.Observations)
	})
	if scenario == nil || report == nil {
		t.Fatal("scenario initialization failed")
	}
	return scenario, report
}

func TestTable2Shapes(t *testing.T) {
	s, r := sharedScenario(t)
	visible := 0
	for _, o := range s.Observations {
		if !o.TLS13 {
			visible++
		}
	}
	if r.Table2.TotalChains != visible {
		t.Errorf("total chains %d != visible observations %d", r.Table2.TotalChains, visible)
	}
	// §6.3: the TLS 1.3 blind spot is about a quarter of all connections.
	if share := r.Sec63.TLS13Share(); share < 0.22 || share > 0.28 {
		t.Errorf("TLS 1.3 share = %v, want ≈0.25", share)
	}
	hy := r.Table2.PerCategory[chain.Hybrid]
	if hy == nil || hy.Chains != 321 {
		t.Fatalf("hybrid chains = %+v, want 321", hy)
	}
	np := r.Table2.PerCategory[chain.NonPublicDBOnly]
	ic := r.Table2.PerCategory[chain.Interception]
	pub := r.Table2.PerCategory[chain.PublicDBOnly]
	if np == nil || ic == nil || pub == nil {
		t.Fatal("missing categories in Table 2")
	}
	// Category proportions (chains): non-pub ≈ 16.24% / 72.5%-ish public.
	tot := float64(r.Table2.TotalChains)
	if f := float64(np.Chains) / tot; f < 0.10 || f > 0.25 {
		t.Errorf("non-public chain share = %v", f)
	}
	if f := float64(ic.Chains) / tot; f < 0.05 || f > 0.20 {
		t.Errorf("interception chain share = %v", f)
	}
	// Connection volume ordering: non-pub >> interception >> hybrid.
	if np.Conns <= ic.Conns || ic.Conns <= hy.Conns {
		t.Errorf("connection ordering violated: np=%d ic=%d hy=%d", np.Conns, ic.Conns, hy.Conns)
	}
}

func TestTable1Shape(t *testing.T) {
	_, r := sharedScenario(t)
	if r.Table1.TotalIssuers != 80 {
		t.Errorf("total interception issuers = %d, want 80", r.Table1.TotalIssuers)
	}
	if len(r.Table1.Sectors) != 6 {
		t.Fatalf("sectors = %d, want 6", len(r.Table1.Sectors))
	}
	// Security & Network dominates connections (94.74% in the paper).
	sec := r.Table1.Sectors[0]
	if sec.Issuers != 31 {
		t.Errorf("security issuers = %d, want 31", sec.Issuers)
	}
	if sec.ConnShare < 0.85 {
		t.Errorf("security conn share = %v, want ≈0.9474", sec.ConnShare)
	}
	if sec.ClientIPs == 0 {
		t.Error("security sector has no client IPs")
	}
	if r.Table1.DetectedIssuers == 0 {
		t.Error("CT cross-reference detected no issuers")
	}
	// Issuer counts per sector are structural absolutes.
	wantIssuers := []int{31, 27, 10, 6, 3, 3}
	for i, s := range r.Table1.Sectors {
		if s.Issuers != wantIssuers[i] {
			t.Errorf("sector %s issuers = %d, want %d", s.Category, s.Issuers, wantIssuers[i])
		}
	}
}

func TestTable3AndEstablishment(t *testing.T) {
	_, r := sharedScenario(t)
	if r.Table3.Total != 321 {
		t.Fatalf("hybrid total = %d", r.Table3.Total)
	}
	if r.Table3.Counts[chain.HybridCompleteNonPubToPub] != 26 ||
		r.Table3.Counts[chain.HybridCompletePubToPrv] != 10 ||
		r.Table3.Counts[chain.HybridContainsComplete] != 70 ||
		r.Table3.Counts[chain.HybridNoComplete] != 215 {
		t.Errorf("Table 3 counts = %v", r.Table3.Counts)
	}
	// Establishment ordering: complete >= contains > no-path (the paper's
	// central §4.2 correlation).
	c := r.Table3.EstablishRate[chain.VerdictCompletePath]
	k := r.Table3.EstablishRate[chain.VerdictContainsPath]
	n := r.Table3.EstablishRate[chain.VerdictNoPath]
	if !(c > k && k > n) {
		t.Errorf("establishment rates not ordered: complete=%v contains=%v nopath=%v", c, k, n)
	}
	if c < 0.93 || n > 0.70 {
		t.Errorf("establishment rates out of band: complete=%v nopath=%v", c, n)
	}
}

func TestTable6(t *testing.T) {
	_, r := sharedScenario(t)
	if r.Table6.Government != 16 || r.Table6.Corporate != 10 {
		t.Errorf("Table 6 = %+v, want 16 government / 10 corporate", r.Table6)
	}
}

func TestTable7(t *testing.T) {
	_, r := sharedScenario(t)
	if r.Table7.Total != 215 {
		t.Fatalf("Table 7 total = %d", r.Table7.Total)
	}
	want := map[chain.NoPathCategory]int{
		chain.NoPathSelfSignedLeafMismatch: 108,
		chain.NoPathSelfSignedLeafValidSub: 13,
		chain.NoPathAllMismatched:          61,
		chain.NoPathPartial:                27,
		chain.NoPathPrivateRootAppended:    5,
		chain.NoPathPrivateRootMismatch:    1,
	}
	for cat, n := range want {
		if r.Table7.Counts[cat] != n {
			t.Errorf("%v = %d, want %d", cat, r.Table7.Counts[cat], n)
		}
	}
}

func TestTable8Shares(t *testing.T) {
	_, r := sharedScenario(t)
	if s := r.Table8.NonPub.MatchedShare(); s < 0.97 {
		t.Errorf("non-pub matched share = %v, want ≈0.9976", s)
	}
	if s := r.Table8.Interception.MatchedShare(); s < 0.95 {
		t.Errorf("interception matched share = %v, want ≈0.9894", s)
	}
	if r.Table8.NonPub.MultiChains == 0 || r.Table8.Interception.MultiChains == 0 {
		t.Error("no multi-cert chains counted")
	}
}

func TestFigure1Shapes(t *testing.T) {
	_, r := sharedScenario(t)
	pub := r.Figure1.CDF[chain.PublicDBOnly]
	np := r.Figure1.CDF[chain.NonPublicDBOnly]
	ic := r.Figure1.CDF[chain.Interception]
	hy := r.Figure1.CDF[chain.Hybrid]
	if pub == nil || np == nil || ic == nil || hy == nil {
		t.Fatal("missing CDFs")
	}
	// Paper: >60% of public chains at length 2; ~80% of non-pub at 1;
	// >80% of interception at 3 (cumulative ≥ at3 - at2).
	if share := pub.Share(2); share < 0.55 {
		t.Errorf("public length-2 share = %v", share)
	}
	if share := np.Share(1); share < 0.70 || share > 0.86 {
		t.Errorf("non-public length-1 share = %v", share)
	}
	if share := ic.Share(3); share < 0.75 {
		t.Errorf("interception length-3 share = %v", share)
	}
	// Hybrid has the widest spread: no single length above 60%.
	for _, l := range hy.Values() {
		if hy.Share(l) > 0.60 {
			t.Errorf("hybrid length %d share %v: should have no dominant length", l, hy.Share(l))
		}
	}
	// Three pathological outliers excluded.
	if len(r.Figure1.Excluded) != 3 {
		t.Errorf("excluded = %v, want 3 entries", r.Figure1.Excluded)
	}
}

func TestFigure4Matrix(t *testing.T) {
	_, r := sharedScenario(t)
	if len(r.Figure4.Chains) != 70 {
		t.Fatalf("figure 4 chains = %d, want 70", len(r.Figure4.Chains))
	}
	for i, row := range r.Figure4.Chains {
		complete := 0
		for _, cell := range row {
			if cell.Segment == "complete" {
				complete++
			}
		}
		if complete < 2 {
			t.Errorf("chain %d has %d complete cells, want >= 2", i, complete)
		}
	}
}

func TestFigure6(t *testing.T) {
	_, r := sharedScenario(t)
	if r.Figure6.Hist.Total() != 215 {
		t.Errorf("figure 6 observations = %d, want 215", r.Figure6.Hist.Total())
	}
	if s := r.Figure6.ShareAtOrAbove05; s < 0.50 || s > 0.63 {
		t.Errorf("share >= 0.5 is %v, want ≈0.5674", s)
	}
}

func TestGraphSummaries(t *testing.T) {
	_, r := sharedScenario(t)
	if r.Figure5.Nodes == 0 || r.Figure5.Edges == 0 {
		t.Error("hybrid graph empty")
	}
	if r.Figure5.PublicNodes == 0 || r.Figure5.NonPublicNodes == 0 {
		t.Error("hybrid graph should mix both classes")
	}
	if r.Figure7.ComplexIntermediates == 0 {
		t.Error("non-public graph should contain complex intermediates (Appendix I)")
	}
	if r.Figure8.Leaves != 0 {
		t.Errorf("figure 8 must omit leaves, has %d", r.Figure8.Leaves)
	}
}

func TestSec42(t *testing.T) {
	_, r := sharedScenario(t)
	if r.Sec42.AnchoredLeaves != 26 {
		t.Errorf("anchored leaves = %d, want 26", r.Sec42.AnchoredLeaves)
	}
	if r.Sec42.CTLoggedAnchoredLeaves != r.Sec42.AnchoredLeaves {
		t.Errorf("CT logged %d of %d anchored leaves; paper found all logged",
			r.Sec42.CTLoggedAnchoredLeaves, r.Sec42.AnchoredLeaves)
	}
	if r.Sec42.ExpiredLeafChains != 3 {
		t.Errorf("expired-leaf chains = %d, want 3", r.Sec42.ExpiredLeafChains)
	}
	if r.Sec42.FakeLEChains != 14 {
		t.Errorf("Fake LE chains = %d, want 14", r.Sec42.FakeLEChains)
	}
	if r.Sec42.MultiChainServers != 19 {
		t.Errorf("multi-chain servers = %d, want 19", r.Sec42.MultiChainServers)
	}
	// The §4.2 sub-finding: 56 no-path chains carry a public leaf whose
	// issuing intermediate is absent.
	if r.Sec42.MissingIssuerChains != 56 {
		t.Errorf("missing-issuer chains = %d, want 56", r.Sec42.MissingIssuerChains)
	}
	if r.Sec42.MissingIssuerConns == 0 || r.Sec42.MissingIssuerClientIPs == 0 {
		t.Error("missing-issuer aggregates empty")
	}
	if r.Sec42.MissingIssuerEstablished >= r.Sec42.MissingIssuerConns {
		t.Error("missing-issuer establishment should be partial")
	}
	// §6.1: every missing-issuer chain has a public leaf whose issuing
	// intermediate is disclosed, so store-completing clients validate all
	// of them even though presented-chain validation fails.
	if r.Sec42.MissingIssuerStoreCompletable != r.Sec42.MissingIssuerChains {
		t.Errorf("store-completable = %d of %d missing-issuer chains",
			r.Sec42.MissingIssuerStoreCompletable, r.Sec42.MissingIssuerChains)
	}
	// Appendix F.2 breakdown of the 70 contains-path chains.
	bd := r.Sec42.ContainsBreakdown
	if got := bd.FakeLE + bd.SelfSignedAppended + bd.LeafFirst + bd.ExtraRoots + bd.Other; got != 70 {
		t.Errorf("contains breakdown sums to %d, want 70 (%+v)", got, bd)
	}
	if bd.FakeLE != 14 {
		t.Errorf("Fake LE = %d, want 14", bd.FakeLE)
	}
	if bd.SelfSignedAppended == 0 || bd.LeafFirst == 0 || bd.ExtraRoots == 0 {
		t.Errorf("breakdown missing patterns: %+v", bd)
	}
}

func TestSec43(t *testing.T) {
	_, r := sharedScenario(t)
	if f := r.Sec43.SingleStats.SelfSignedShare(); f < 0.88 || f > 0.99 {
		t.Errorf("self-signed share = %v, want ≈0.9419", f)
	}
	if f := r.Sec43.BCAbsentFirst; f < 0.40 || f > 0.70 {
		t.Errorf("BC absent first = %v, want ≈0.5531", f)
	}
	if f := r.Sec43.BCAbsentSubsequent; f < 0.65 || f > 0.92 {
		t.Errorf("BC absent subsequent = %v, want ≈0.7832", f)
	}
	if f := r.Sec43.NoSNIShare; f < 0.75 || f > 0.95 {
		t.Errorf("no-SNI share = %v, want ≈0.8670", f)
	}
	if r.Sec43.DGACerts == 0 || r.Sec43.DGAConns == 0 || r.Sec43.DGAClients == 0 {
		t.Error("DGA cluster not detected")
	}
	if r.Sec43.DGAMinDays < 4 || r.Sec43.DGAMaxDays > 365 {
		t.Errorf("DGA validity range [%d, %d] outside [4, 365]", r.Sec43.DGAMinDays, r.Sec43.DGAMaxDays)
	}
}

func TestRenderContainsEverything(t *testing.T) {
	_, r := sharedScenario(t)
	out := r.Render()
	for _, want := range []string{
		"Table 1", "Table 2", "Table 3", "Table 4", "Table 6", "Table 7", "Table 8",
		"Figure 1", "Figure 4", "Figure 6", "Figure 5", "Figure 7", "Figure 8",
		"§4.2", "§4.3", "Security & Network", "non-public-DB-only",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q", want)
		}
	}
	if len(out) < 2000 {
		t.Errorf("render output suspiciously short: %d bytes", len(out))
	}
}

func TestRevisitAnalysis(t *testing.T) {
	s, _ := sharedScenario(t)
	rr := AnalyzeRevisit(s.Classifier, s.Revisit, "Lets Encrypt")
	if rr.HybridTargets != 321 || rr.HybridReachable != 270 {
		t.Errorf("hybrid targets/reachable = %d/%d, want 321/270", rr.HybridTargets, rr.HybridReachable)
	}
	if rr.HybridToPublic != 231 {
		t.Errorf("to public = %d, want 231", rr.HybridToPublic)
	}
	if rr.HybridToPublicLE != 180 {
		t.Errorf("to Lets Encrypt analog = %d, want 180", rr.HybridToPublicLE)
	}
	if rr.HybridToNonPub != 4 {
		t.Errorf("to non-public = %d, want 4", rr.HybridToNonPub)
	}
	if rr.HybridStillHybrid != 35 || rr.HybridStillClean != 9 || rr.HybridStillExtra != 3 || rr.HybridStillNoPath != 23 {
		t.Errorf("still hybrid = %d (%d/%d/%d), want 35 (9/3/23)",
			rr.HybridStillHybrid, rr.HybridStillClean, rr.HybridStillExtra, rr.HybridStillNoPath)
	}
	if rr.NonPubScanned == 0 || rr.NonPubStillNonPub != rr.NonPubScanned {
		t.Errorf("non-pub scanned=%d still=%d; paper: all still non-public", rr.NonPubScanned, rr.NonPubStillNonPub)
	}
	frac := float64(rr.NonPubNowMulti) / float64(rr.NonPubScanned)
	if frac < 0.70 || frac > 0.88 {
		t.Errorf("now-multi share = %v, want ≈0.794", frac)
	}
	if comp := float64(rr.NonPubNewComplete) / float64(rr.NonPubNowMulti); comp < 0.93 {
		t.Errorf("new complete share = %v, want ≈0.9761", comp)
	}
	out := rr.Render()
	if !strings.Contains(out, "§5") || !strings.Contains(out, "still hybrid: 35") {
		t.Errorf("revisit render incomplete:\n%s", out)
	}
}

func TestZeekRoundTrip(t *testing.T) {
	s, _ := sharedScenario(t)
	// Take a manageable slice of observations across categories.
	var subset []*campus.Observation
	seen := make(map[chain.Category]int)
	for _, o := range s.Observations {
		if seen[o.Category] < 30 {
			seen[o.Category]++
			subset = append(subset, o)
		}
	}
	var ssl, x509 bytes.Buffer
	if err := campus.Replay(subset, &ssl, &x509, campus.ReplayOptions{MaxConnsPerObservation: 20}); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(ssl.Bytes()), bytes.NewReader(x509.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(subset) {
		t.Fatalf("loaded %d observations, wrote %d", len(loaded), len(subset))
	}
	// Chains, ports and servers must round-trip exactly; the classifier
	// must re-derive identical categories from the reloaded data.
	byKey := make(map[string]*campus.Observation)
	for _, o := range subset {
		byKey[o.Chain.Key()+"|"+o.ServerIP] = o
	}
	for _, l := range loaded {
		orig, ok := byKey[l.Chain.Key()+"|"+l.ServerIP]
		if !ok {
			t.Fatalf("loaded observation for unknown chain/server")
		}
		if l.Port != orig.Port {
			t.Errorf("port %d != %d", l.Port, orig.Port)
		}
		if got := s.Classifier.Categorize(l.Chain); got != orig.Category {
			t.Errorf("category %v != %v after round trip", got, orig.Category)
		}
		capped := orig.Conns
		if capped > 20 {
			capped = 20
		}
		if l.Conns != capped {
			t.Errorf("conns = %d, want %d", l.Conns, capped)
		}
	}
}

func TestExportJSON(t *testing.T) {
	_, r := sharedScenario(t)
	data, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 500 {
		t.Fatalf("export too small: %d bytes", len(data))
	}
	if err := VerifyExportAbsolutes(data); err != nil {
		t.Errorf("export absolutes: %v", err)
	}
	// The export must be valid JSON with the expected top-level keys.
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"table1_interception_sectors", "table2_categories", "table3_hybrid",
		"table4_ports", "table7_no_path", "table8_multi_cert",
		"figure1_length_cdf", "figure6_mismatch_ratios", "sec42", "sec43",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("export missing key %q", key)
		}
	}
}

func TestVerifyExportAbsolutesRejectsBadData(t *testing.T) {
	if err := VerifyExportAbsolutes([]byte("{")); err == nil {
		t.Error("bad JSON must error")
	}
	if err := VerifyExportAbsolutes([]byte(`{"table3_hybrid":{"total":7}}`)); err == nil {
		t.Error("wrong absolutes must error")
	}
}

func TestLoadGzippedLogs(t *testing.T) {
	s, _ := sharedScenario(t)
	var subset []*campus.Observation
	for i, o := range s.Observations {
		if i%50 == 0 && !o.TLS13 && len(o.Chain) <= 30 {
			subset = append(subset, o)
		}
	}
	var ssl, x509 bytes.Buffer
	if err := campus.Replay(subset, &ssl, &x509, campus.ReplayOptions{MaxConnsPerObservation: 3}); err != nil {
		t.Fatal(err)
	}
	gz := func(b []byte) []byte {
		var out bytes.Buffer
		w := gzip.NewWriter(&out)
		w.Write(b)
		w.Close()
		return out.Bytes()
	}
	loaded, err := Load(bytes.NewReader(gz(ssl.Bytes())), bytes.NewReader(gz(x509.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(subset) {
		t.Errorf("gzipped load = %d observations, want %d", len(loaded), len(subset))
	}
	// Mixed: one plain, one gzipped.
	loaded2, err := Load(bytes.NewReader(ssl.Bytes()), bytes.NewReader(gz(x509.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded2) != len(subset) {
		t.Errorf("mixed load = %d observations", len(loaded2))
	}
	// Corrupt gzip body must surface an error.
	bad := gz(ssl.Bytes())
	bad[len(bad)-5] ^= 0xff
	if _, err := Load(bytes.NewReader(bad), bytes.NewReader(gz(x509.Bytes()))); err == nil {
		t.Error("corrupted gzip should error")
	}
	// Empty stream loads zero observations without error.
	empty, err := Load(strings.NewReader(""), strings.NewReader(""))
	if err != nil || len(empty) != 0 {
		t.Errorf("empty load = %d, %v", len(empty), err)
	}
}
