package campus

import (
	"fmt"
	"testing"
	"time"

	"certchains/internal/chain"
	"certchains/internal/dga"
	"certchains/internal/intercept"
	"certchains/internal/trustdb"
)

// testScenario generates a small scenario shared across tests (generation is
// the expensive step; tests share one instance per seed).
func testScenario(t *testing.T) *Scenario {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Scale = 0.002
	s, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGenerateRejectsBadScale(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 0
	if _, err := Generate(cfg); err == nil {
		t.Error("zero scale must be rejected")
	}
	cfg.Scale = -1
	if _, err := Generate(cfg); err == nil {
		t.Error("negative scale must be rejected")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 0.0005
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Observations) != len(b.Observations) {
		t.Fatalf("observation counts differ: %d vs %d", len(a.Observations), len(b.Observations))
	}
	for i := range a.Observations {
		oa, ob := a.Observations[i], b.Observations[i]
		if oa.Chain.Key() != ob.Chain.Key() || oa.Conns != ob.Conns || oa.ServerIP != ob.ServerIP ||
			oa.Port != ob.Port || oa.Established != ob.Established {
			t.Fatalf("observation %d differs between identical seeds", i)
		}
	}
	if a.CT.Size() != b.CT.Size() {
		t.Error("CT logs differ between identical seeds")
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 0.0005
	a, _ := Generate(cfg)
	cfg.Seed = 77
	b, _ := Generate(cfg)
	same := 0
	n := len(a.Observations)
	if len(b.Observations) < n {
		n = len(b.Observations)
	}
	for i := 0; i < n; i++ {
		if a.Observations[i].Chain.Key() == b.Observations[i].Chain.Key() {
			same++
		}
	}
	if same == n {
		t.Error("different seeds produced identical datasets")
	}
}

func TestCategoryMixMatchesClassifier(t *testing.T) {
	s := testScenario(t)
	for i, o := range s.Observations {
		if o.TLS13 {
			if len(o.Chain) != 0 {
				t.Fatalf("observation %d: TLS 1.3 observation carries a chain", i)
			}
			continue
		}
		got := s.Classifier.Categorize(o.Chain)
		if got != o.Category {
			t.Fatalf("observation %d: generator intended %v, classifier derived %v (chain %v)",
				i, o.Category, got, describe(o))
		}
	}
}

func describe(o *Observation) []string {
	var out []string
	for _, m := range o.Chain {
		out = append(out, "S="+m.Subject.String()+" I="+m.Issuer.String())
	}
	return out
}

func TestHybridPopulationExactCounts(t *testing.T) {
	s := testScenario(t)
	counts := make(map[chain.HybridCategory]int)
	noPath := make(map[chain.NoPathCategory]int)
	for _, o := range s.Observations {
		if o.Category != chain.Hybrid {
			continue
		}
		a := s.Classifier.Analyze(o.Chain)
		hc := chain.ClassifyHybrid(a)
		counts[hc]++
		if hc == chain.HybridNoComplete {
			noPath[chain.ClassifyNoPath(a)]++
		}
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != 321 {
		t.Fatalf("hybrid chains = %d, want 321", total)
	}
	if counts[chain.HybridCompleteNonPubToPub] != 26 {
		t.Errorf("non-pub-to-pub = %d, want 26", counts[chain.HybridCompleteNonPubToPub])
	}
	if counts[chain.HybridCompletePubToPrv] != 10 {
		t.Errorf("pub-to-prv = %d, want 10", counts[chain.HybridCompletePubToPrv])
	}
	if counts[chain.HybridContainsComplete] != 70 {
		t.Errorf("contains = %d, want 70", counts[chain.HybridContainsComplete])
	}
	if counts[chain.HybridNoComplete] != 215 {
		t.Errorf("no-complete = %d, want 215", counts[chain.HybridNoComplete])
	}
	// Table 7 exact counts.
	if noPath[chain.NoPathSelfSignedLeafMismatch] != 108 {
		t.Errorf("self-signed+mismatch = %d, want 108", noPath[chain.NoPathSelfSignedLeafMismatch])
	}
	if noPath[chain.NoPathSelfSignedLeafValidSub] != 13 {
		t.Errorf("self-signed+valid-sub = %d, want 13", noPath[chain.NoPathSelfSignedLeafValidSub])
	}
	if noPath[chain.NoPathAllMismatched] != 61 {
		t.Errorf("all-mismatched = %d, want 61", noPath[chain.NoPathAllMismatched])
	}
	if noPath[chain.NoPathPartial] != 27 {
		t.Errorf("partial = %d, want 27", noPath[chain.NoPathPartial])
	}
	if noPath[chain.NoPathPrivateRootAppended] != 5 {
		t.Errorf("root-appended = %d, want 5", noPath[chain.NoPathPrivateRootAppended])
	}
	if noPath[chain.NoPathPrivateRootMismatch] != 1 {
		t.Errorf("root+mismatch = %d, want 1", noPath[chain.NoPathPrivateRootMismatch])
	}
}

func TestAnchoredHybridLeavesAreCTLogged(t *testing.T) {
	s := testScenario(t)
	checked := 0
	for _, o := range s.Observations {
		if o.Category != chain.Hybrid {
			continue
		}
		a := s.Classifier.Analyze(o.Chain)
		if chain.ClassifyHybrid(a) != chain.HybridCompleteNonPubToPub {
			continue
		}
		checked++
		if !a.AnchoredToPublicRoot(s.DB) {
			t.Errorf("non-pub-to-pub chain not anchored: %v", describe(o))
		}
		if !s.CT.Contains(o.Chain[0].FP) {
			t.Errorf("anchored non-public leaf %s not CT-logged", o.Chain[0].Subject.CommonName())
		}
	}
	if checked != 26 {
		t.Errorf("checked %d chains, want 26", checked)
	}
}

func TestInterceptionDetectable(t *testing.T) {
	s := testScenario(t)
	det := intercept.NewDetector(s.DB, s.CT)
	flagged := make(map[string]bool)
	for _, o := range s.Observations {
		if o.Category != chain.Interception || o.Domain == "" {
			continue
		}
		v := det.Examine(o.Chain[0], o.Domain, o.First)
		if v == intercept.IssuerMismatch {
			flagged[o.Chain[0].Issuer.Normalized()] = true
		}
	}
	// Every registered interception entity should be discoverable through
	// at least one of its issuers' observations.
	if len(flagged) < s.InterceptRegistry.Len()/2 {
		t.Errorf("only %d issuer DNs flagged; registry has %d entities", len(flagged), s.InterceptRegistry.Len())
	}
	if s.InterceptRegistry.Len() != 80 {
		t.Errorf("registry = %d issuers, want 80", s.InterceptRegistry.Len())
	}
}

func TestNonPublicShapes(t *testing.T) {
	s := testScenario(t)
	var single, singleSelf, multi, dgaCount int
	var pathological int
	for _, o := range s.Observations {
		if o.Category != chain.NonPublicDBOnly {
			continue
		}
		if len(o.Chain) > 30 {
			pathological++
			continue
		}
		if len(o.Chain) == 1 {
			single++
			if o.Chain[0].SelfSigned() {
				singleSelf++
			}
			if dga.IsDGACertificate(o.Chain[0]) {
				dgaCount++
			}
		} else {
			multi++
		}
	}
	if pathological != 3 {
		t.Errorf("pathological chains = %d, want 3", pathological)
	}
	frac := float64(single) / float64(single+multi)
	if frac < 0.70 || frac > 0.86 {
		t.Errorf("single-cert share = %v, want ≈0.781", frac)
	}
	selfFrac := float64(singleSelf) / float64(single)
	if selfFrac < 0.88 || selfFrac > 0.99 {
		t.Errorf("self-signed share = %v, want ≈0.9419", selfFrac)
	}
	if dgaCount == 0 {
		t.Error("no DGA cluster certificates detected")
	}
}

func TestRevisitPlanShape(t *testing.T) {
	s := testScenario(t)
	p := s.Revisit
	if p == nil {
		t.Fatal("revisit plan missing")
	}
	if len(p.Hybrid) != 321 {
		t.Fatalf("revisit hybrid servers = %d, want 321", len(p.Hybrid))
	}
	reach := 0
	toPublic, toNonPub, stillHybrid := 0, 0, 0
	for _, rs := range p.Hybrid {
		if !rs.Reachable {
			continue
		}
		reach++
		cat := s.Classifier.Categorize(rs.NewChain)
		switch cat {
		case chain.PublicDBOnly:
			toPublic++
		case chain.NonPublicDBOnly:
			toNonPub++
		case chain.Hybrid:
			stillHybrid++
		}
	}
	if reach != 270 {
		t.Errorf("reachable = %d, want 270", reach)
	}
	if toPublic != 231 {
		t.Errorf("to public = %d, want 231", toPublic)
	}
	if toNonPub != 4 {
		t.Errorf("to non-public = %d, want 4", toNonPub)
	}
	if stillHybrid != 35 {
		t.Errorf("still hybrid = %d, want 35", stillHybrid)
	}
	if len(p.NonPub) == 0 {
		t.Fatal("no non-public revisit servers")
	}
	var nowMulti int
	for _, rs := range p.NonPub {
		if s.Classifier.Categorize(rs.NewChain) != chain.NonPublicDBOnly {
			t.Fatalf("revisit non-pub server %s serves %v", rs.Domain, s.Classifier.Categorize(rs.NewChain))
		}
		if len(rs.NewChain) > 1 {
			nowMulti++
		}
	}
	frac := float64(nowMulti) / float64(len(p.NonPub))
	if frac < 0.70 || frac > 0.88 {
		t.Errorf("now-multi share = %v, want ≈0.794", frac)
	}
	if !p.ScanTime.After(time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)) {
		t.Error("scan time must be in 2024")
	}
}

func TestTotalsAggregation(t *testing.T) {
	s := testScenario(t)
	tot := s.Totals()
	if tot.Chains[chain.Hybrid] != 321 {
		t.Errorf("hybrid chains = %d", tot.Chains[chain.Hybrid])
	}
	for _, cat := range []chain.Category{chain.PublicDBOnly, chain.NonPublicDBOnly, chain.Hybrid, chain.Interception} {
		if tot.Chains[cat] == 0 {
			t.Errorf("no chains in category %v", cat)
		}
		if tot.Conns[cat] == 0 {
			t.Errorf("no connections in category %v", cat)
		}
		if tot.Established[cat] > tot.Conns[cat] {
			t.Errorf("category %v: established exceeds total", cat)
		}
		if tot.ClientIPs[cat] == 0 {
			t.Errorf("no client IPs in category %v", cat)
		}
	}
	// Non-public-DB-only dominates connection volume (Table 2 shape).
	if tot.Conns[chain.NonPublicDBOnly] <= tot.Conns[chain.Hybrid] {
		t.Error("non-public connections should dwarf hybrid connections")
	}
}

func TestTrustDBPopulated(t *testing.T) {
	s := testScenario(t)
	if s.DB.Size() < 7 {
		t.Errorf("trust DB has only %d entries", s.DB.Size())
	}
	// The classifier must classify a public leaf correctly.
	found := false
	for _, o := range s.Observations {
		if o.Category == chain.PublicDBOnly {
			if s.DB.Classify(o.Chain[0]) != trustdb.IssuedByPublicDB {
				t.Error("public leaf misclassified")
			}
			found = true
			break
		}
	}
	if !found {
		t.Error("no public observations generated")
	}
}

func TestSplitPreservesTotal(t *testing.T) {
	s := testScenario(t)
	for _, total := range []int64{10, 1000, 99999} {
		for _, n := range []int{1, 7, 100} {
			parts := s.split(total, n)
			var sum int64
			for _, p := range parts {
				if p < 1 {
					t.Fatalf("split produced non-positive part %d", p)
				}
				sum += p
			}
			// The repair step can fail only when parts can't absorb the
			// diff; totals must match whenever total >= n.
			if total >= int64(n) && sum != total {
				t.Errorf("split(%d, %d) sums to %d", total, n, sum)
			}
		}
	}
}

func TestObservationEstablishRate(t *testing.T) {
	o := &Observation{Conns: 200, Established: 150}
	if o.EstablishRate() != 0.75 {
		t.Errorf("rate = %v", o.EstablishRate())
	}
	empty := &Observation{}
	if empty.EstablishRate() != 0 {
		t.Error("zero-conn rate must be 0")
	}
}

// BenchmarkGenerate: one world (seed 1) per op, at the smallest scale that
// keeps every structural absolute and at five times it.
func BenchmarkGenerate(b *testing.B) {
	for _, scale := range []float64{0.002, 0.01} {
		b.Run(fmt.Sprintf("scale=%g", scale), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Scale = scale
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Generate(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
