package lint

import (
	"reflect"
	"testing"

	"certchains/internal/certmodel"
	"certchains/internal/chain"
	"certchains/internal/trustdb"
)

// corpusChains returns a small corpus with distinct lint surfaces.
func corpusChains() []certmodel.Chain {
	clean := certmodel.Chain{
		mk("CN=LRoot", "CN=good.example.com", certmodel.BCFalse, "good.example.com"),
		mk("CN=LRoot", "CN=LRoot", certmodel.BCTrue),
	}
	// Mismatched pair: no complete matched path exists in the delivery.
	orphan := certmodel.Chain{
		mk("CN=Nowhere", "CN=lost.example.com", certmodel.BCFalse, "lost.example.com"),
		mk("CN=Elsewhere", "CN=Unrelated", certmodel.BCTrue),
	}
	localhost := certmodel.Chain{
		mk("CN=localhost", "CN=localhost", certmodel.BCAbsent),
	}
	return []certmodel.Chain{clean, orphan, localhost}
}

func TestCorpusObserveAndSummarize(t *testing.T) {
	l := testLinter(t)
	c := NewCorpusReport(l)
	for i, ch := range corpusChains() {
		// Observe each chain twice with different connection weights; the
		// second observation must hit the per-shard cache.
		c.Observe(ch, int64(i+1))
		c.Observe(ch, int64(i+1))
	}
	s := c.Summarize()
	if s.Chains != 3 {
		t.Errorf("Chains = %d", s.Chains)
	}
	if s.Observations != 6 {
		t.Errorf("Observations = %d", s.Observations)
	}
	if s.Conns != 12 {
		t.Errorf("Conns = %d", s.Conns)
	}
	per := make(map[string]CheckPrevalence)
	for _, row := range s.Checks {
		per[row.ID] = row
	}
	if row := per["no-trust-path"]; row.Chains != 1 || row.Conns != 4 {
		t.Errorf("no-trust-path: %+v", row)
	}
	if row := per["localhost-placeholder"]; row.Chains != 1 || row.Findings != 1 || row.Conns != 6 {
		t.Errorf("localhost-placeholder: %+v", row)
	}
	// Rows exist (with zero counts) even for checks that never fired.
	if row, ok := per["staging-placeholder"]; !ok || row.Chains != 0 {
		t.Errorf("staging-placeholder row: %+v ok=%v", row, ok)
	}
}

// TestCorpusMergeCommutative splits a corpus across shards in two different
// ways and merges in opposite orders; the summaries must be identical, and
// identical to the unsharded run. This is the pipeline's merge contract.
func TestCorpusMergeCommutative(t *testing.T) {
	l := testLinter(t)
	chains := corpusChains()

	single := NewCorpusReport(l)
	for i, ch := range chains {
		single.Observe(ch, int64(10*(i+1)))
	}

	build := func(order []int) *CorpusSummary {
		shards := make([]*CorpusReport, 2)
		for i := range shards {
			shards[i] = NewCorpusReport(l)
		}
		for i, ch := range chains {
			shards[i%2].Observe(ch, int64(10*(i+1)))
		}
		dst := NewCorpusReport(l)
		for _, idx := range order {
			dst.Merge(shards[idx])
		}
		return dst.Summarize()
	}

	fwd := build([]int{0, 1})
	rev := build([]int{1, 0})
	want := single.Summarize()
	if !reflect.DeepEqual(fwd, rev) {
		t.Errorf("merge order changed the summary:\n%+v\n%+v", fwd, rev)
	}
	if !reflect.DeepEqual(fwd, want) {
		t.Errorf("sharded summary differs from unsharded:\n%+v\n%+v", fwd, want)
	}
}

// TestCorpusSerialReuseClusters exercises the corpus-level cluster count the
// in-chain serial-reuse check cannot see: the colliding certificates arrive
// in different chains.
func TestCorpusSerialReuseClusters(t *testing.T) {
	l := testLinter(t)
	a := mk("CN=Issuer", "CN=one.example.com", certmodel.BCFalse, "one.example.com")
	b := mk("CN=Issuer", "CN=two.example.com", certmodel.BCFalse, "two.example.com")
	a.SerialHex, b.SerialHex = "7f", "7f"

	shard1 := NewCorpusReport(l)
	shard1.Observe(certmodel.Chain{a}, 1)
	shard2 := NewCorpusReport(l)
	shard2.Observe(certmodel.Chain{b}, 1)
	shard1.Merge(shard2)
	if s := shard1.Summarize(); s.SerialReuseClusters != 1 {
		t.Errorf("SerialReuseClusters = %d, want 1", s.SerialReuseClusters)
	}

	// The same certificate observed in two chains is not a cluster.
	shard3 := NewCorpusReport(l)
	shard3.Observe(certmodel.Chain{a}, 1)
	shard3.Observe(certmodel.Chain{a, mk("CN=LRoot", "CN=LRoot", certmodel.BCTrue)}, 1)
	if s := shard3.Summarize(); s.SerialReuseClusters != 0 {
		t.Errorf("single-cert cluster counted: %d", s.SerialReuseClusters)
	}
}

func TestCorpusRenderMentionsEveryCheck(t *testing.T) {
	l := testLinter(t)
	c := NewCorpusReport(l)
	for _, ch := range corpusChains() {
		c.Observe(ch, 1)
	}
	out := c.Summarize().Render()
	for _, chk := range l.EnabledChecks() {
		if !containsLine(out, chk.ID) {
			t.Errorf("rendered table missing check %q", chk.ID)
		}
	}
}

func containsLine(s, sub string) bool {
	for _, line := range splitLines(s) {
		if len(line) >= len(sub) && line[:len(sub)] == sub {
			return true
		}
	}
	return false
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// TestCorpusObserveAnalyzedMatchesObserve ensures the analysis-caching entry
// point used by the pipeline produces the same accumulator as Observe.
func TestCorpusObserveAnalyzedMatchesObserve(t *testing.T) {
	db := trustdb.New()
	db.AddRoot(trustdb.StoreMozilla, mk("CN=LRoot", "CN=LRoot", certmodel.BCTrue))
	cl := chain.NewClassifier(db)
	l := New(cl, Config{Now: now})

	plain := NewCorpusReport(l)
	pre := NewCorpusReport(l)
	for _, ch := range corpusChains() {
		plain.Observe(ch, 3)
		pre.ObserveAnalyzed(ch, cl.Analyze(ch), 3)
	}
	if !reflect.DeepEqual(plain.Summarize(), pre.Summarize()) {
		t.Error("ObserveAnalyzed diverged from Observe")
	}
}

// TestCorpusObserveSeenChainAllocs: observing a chain this accumulator has
// already linted is a key probe and one counter add per triggered check —
// no key string, no findings, no allocation.
func TestCorpusObserveSeenChainAllocs(t *testing.T) {
	l := testLinter(t)
	c := NewCorpusReport(l)
	chains := corpusChains()
	analyses := make([]*chain.Analysis, len(chains))
	for i, ch := range chains {
		analyses[i] = l.cl.Analyze(ch)
		c.ObserveAnalyzed(ch, analyses[i], 1)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		c.ObserveAnalyzed(chains[i%len(chains)], analyses[i%len(chains)], 1)
		i++
	})
	if allocs != 0 {
		t.Fatalf("ObserveAnalyzed of a seen chain allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestCorpusObserveExpiredLeafAllocs: the count path never formats a
// finding's message, so linting a first-seen chain whose leaf has expired
// allocates exactly what linting the same chain unexpired does.
func TestCorpusObserveExpiredLeafAllocs(t *testing.T) {
	l := testLinter(t)
	firstSeen := func(ch certmodel.Chain) float64 {
		c := NewCorpusReport(l)
		a := l.cl.Analyze(ch)
		return testing.AllocsPerRun(100, func() {
			clear(c.FindingsPerChain)
			c.ObserveAnalyzed(ch, a, 1)
		})
	}
	valid := corpusChains()[0]
	leaf := mk("CN=LRoot", "CN=good.example.com", certmodel.BCFalse, "good.example.com")
	leaf.NotAfter = now.AddDate(0, 0, -1)
	expired := certmodel.Chain{leaf, valid[1]}
	if fs := checks(l.Chain(expired)); fs["expired"] != 1 {
		t.Fatalf("expired leaf: findings %v, want one expired", fs)
	}
	if got, want := firstSeen(expired), firstSeen(valid); got != want {
		t.Fatalf("first-seen expired leaf: %.1f allocs/op, the same chain unexpired %.1f", got, want)
	}
}
