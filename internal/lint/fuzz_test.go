package lint

import (
	"reflect"
	"sync"
	"testing"

	"certchains/internal/campus"
	"certchains/internal/certmodel"
)

// fuzzScenario generates one small campus corpus shared by every fuzz
// execution; regeneration per input would dominate the fuzzing budget.
var fuzzScenario = sync.OnceValues(func() (*campus.Scenario, error) {
	cfg := campus.DefaultConfig()
	cfg.Seed = 7
	cfg.Scale = 0.0005
	return campus.Generate(cfg)
})

// FuzzLintChain drives the full engine over campus-generated chains (every
// class: public, private, interception, placeholder, malformed deliveries)
// plus fuzzer-mutated slicings. The engine must never panic and must be
// deterministic: linting the same chain twice yields identical findings.
// The corpus pass's counting path must agree with the findings: under every
// profile, its per-check counts are ChainAnalyzed's findings grouped by
// check.
func FuzzLintChain(f *testing.F) {
	s, err := fuzzScenario()
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		f.Add(uint32(i*37), uint8(i), uint8(i%3))
	}
	f.Fuzz(func(t *testing.T, idx uint32, cut uint8, profSel uint8) {
		obs := s.Observations
		if len(obs) == 0 {
			t.Skip("empty corpus")
		}
		ch := obs[int(idx)%len(obs)].Chain
		// Mutate the delivery shape: rotate and truncate by the fuzzed cut so
		// the engine also sees orders and prefixes the generator never emits.
		if n := len(ch); n > 0 {
			rot := int(cut) % n
			mutated := make(certmodel.Chain, 0, n)
			mutated = append(mutated, ch[rot:]...)
			mutated = append(mutated, ch[:rot]...)
			keep := 1 + int(cut)%n
			ch = mutated[:keep]
		}
		profile := []string{ProfilePaper, ProfileStrict, ProfileAll}[int(profSel)%3]
		l := New(s.Classifier, Config{Now: s.End(), Profile: profile})

		first := l.Chain(ch)
		second := l.Chain(ch)
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("non-deterministic lint:\n%v\n%v", first, second)
		}
		for i := 1; i < len(first); i++ {
			a, b := first[i-1], first[i]
			if a.CertIndex > b.CertIndex || (a.CertIndex == b.CertIndex && a.Check > b.Check) {
				t.Fatalf("findings out of order at %d: %v", i, first)
			}
		}
		for _, fd := range first {
			if fd.CertIndex < -1 || fd.CertIndex >= len(ch) {
				t.Fatalf("finding position %d outside chain of %d", fd.CertIndex, len(ch))
			}
			if _, ok := l.Registry().Lookup(fd.Check); !ok {
				t.Fatalf("finding carries unregistered check %q", fd.Check)
			}
		}
		for _, p := range []string{ProfilePaper, ProfileStrict, ProfileAll} {
			pl := New(s.Classifier, Config{Now: s.End(), Profile: p})
			a := s.Classifier.Analyze(ch)
			want := make(map[string]int)
			for _, fd := range pl.ChainAnalyzed(ch, a) {
				want[fd.Check]++
			}
			c := NewCorpusReport(pl)
			c.ObserveAnalyzed(ch, a, 1)
			if got := c.FindingsPerChain[ch.Key()]; !reflect.DeepEqual(got, want) {
				t.Fatalf("profile %s: corpus counts %v, findings grouped by check %v", p, got, want)
			}
		}
	})
}
