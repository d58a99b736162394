package lint

import (
	"fmt"
	"strings"

	"certchains/internal/certmodel"
	"certchains/internal/chain"
	"certchains/internal/stats"
)

// CorpusReport accumulates lint findings over every distinct chain of an
// observation corpus. It follows the sharded pipeline's merge contract: each
// worker lints its shard into a private CorpusReport, and Merge folds shard
// accumulators together commutatively — chain-keyed maps union (linting is
// deterministic per chain, so duplicate keys carry identical values) and
// connection counters add (each observation belongs to exactly one shard).
// Any merge order therefore summarizes byte-identically.
//
// The JSON form is the tagged fields. The linter is not encoded: decode into
// a NewCorpusReport whose linter is configured like the encoder's.
type CorpusReport struct {
	linter *Linter // shared deterministic lint engine, not accumulated state
	// Observations / Conns count every linted observation additively.
	Observations int64 `json:"observations"`
	Conns        int64 `json:"conns"`
	// FindingsPerChain maps chain key -> check ID -> finding count; it doubles
	// as the shard-local lint cache (each distinct chain is linted once per
	// shard). A per-chain map is never written after it is first filled, so
	// accumulators may share them.
	FindingsPerChain map[string]map[string]int `json:"findings_per_chain,omitempty"`
	// ConnsPerCheck maps check ID -> connections to chains that trigger it.
	ConnsPerCheck map[string]int64 `json:"conns_per_check,omitempty"`
	// SerialCerts maps normalized issuer + serial -> distinct certificates,
	// for the corpus-level serial-reuse clusters the in-chain check cannot
	// see (§4.3 non-compliant private issuance).
	SerialCerts stats.Sets[string, certmodel.Fingerprint] `json:"serial_certs,omitempty"`

	// keyBuf holds the chain key being looked up: probing FindingsPerChain
	// with m[string(keyBuf)] allocates nothing, so a key string is built
	// only on a chain's first sight.
	keyBuf []byte
}

// NewCorpusReport creates an empty accumulator linting with l.
func NewCorpusReport(l *Linter) *CorpusReport {
	return &CorpusReport{
		linter:           l,
		FindingsPerChain: make(map[string]map[string]int),
		ConnsPerCheck:    make(map[string]int64),
		SerialCerts:      stats.Sets[string, certmodel.Fingerprint]{},
	}
}

// Observe lints one observed chain delivery carrying conns connections.
func (c *CorpusReport) Observe(ch certmodel.Chain, conns int64) {
	c.ObserveAnalyzed(ch, c.linter.cl.Analyze(ch), conns)
}

// ObserveAnalyzed is Observe with a precomputed structural analysis (the
// pipeline already holds one per distinct chain).
func (c *CorpusReport) ObserveAnalyzed(ch certmodel.Chain, a *chain.Analysis, conns int64) {
	c.Observations++
	c.Conns += conns
	c.keyBuf = ch.AppendKey(c.keyBuf[:0])
	perCheck, seen := c.FindingsPerChain[string(c.keyBuf)]
	if !seen {
		perCheck = make(map[string]int)
		c.linter.run(ch, a, &Collector{counts: perCheck})
		c.FindingsPerChain[string(c.keyBuf)] = perCheck
		for _, m := range ch {
			if m.SerialHex == "" {
				continue
			}
			c.SerialCerts.Add(m.IssuerKey()+"|"+m.SerialHex, m.FP)
		}
	}
	for id := range perCheck {
		c.ConnsPerCheck[id] += conns
	}
}

// Merge folds another shard's accumulator into this one. Both accumulators
// must lint with the same configuration.
func (c *CorpusReport) Merge(o *CorpusReport) {
	c.Observations += o.Observations
	c.Conns += o.Conns
	for k, perCheck := range o.FindingsPerChain {
		if _, ok := c.FindingsPerChain[k]; !ok {
			c.FindingsPerChain[k] = perCheck
		}
	}
	for id, n := range o.ConnsPerCheck {
		c.ConnsPerCheck[id] += n
	}
	c.SerialCerts.Union(o.SerialCerts)
}

// CheckPrevalence is the corpus-wide result for one check.
type CheckPrevalence struct {
	ID          string
	Severity    Severity
	Description string
	Citation    string
	// Chains is the number of distinct chains with at least one finding.
	Chains int
	// ChainShare is Chains over all distinct chains linted.
	ChainShare float64
	// Findings is the total finding count over distinct chains (a chain
	// triggering a check at three positions contributes three).
	Findings int64
	// Conns is the number of connections that delivered a triggering chain.
	Conns int64
}

// CorpusSummary is the finalized corpus lint result.
type CorpusSummary struct {
	// Profile is the check profile the corpus was linted under.
	Profile string
	// Chains / Observations / Conns size the linted corpus.
	Chains       int
	Observations int64
	Conns        int64
	// Checks holds one prevalence row per enabled check, sorted by ID;
	// checks that never fired appear with zero counts.
	Checks []CheckPrevalence
	// SerialReuseClusters counts (issuer, serial) pairs shared by two or
	// more distinct certificates anywhere in the corpus.
	SerialReuseClusters int
}

// Summarize finalizes the (fully merged) accumulator.
func (c *CorpusReport) Summarize() *CorpusSummary {
	s := &CorpusSummary{
		Profile:      c.linter.Config().Profile,
		Chains:       len(c.FindingsPerChain),
		Observations: c.Observations,
		Conns:        c.Conns,
	}
	chainsPer := make(map[string]int)
	findingsPer := make(map[string]int64)
	for _, perCheck := range c.FindingsPerChain {
		for id, n := range perCheck {
			chainsPer[id]++
			findingsPer[id] += int64(n)
		}
	}
	for _, chk := range c.linter.EnabledChecks() {
		s.Checks = append(s.Checks, CheckPrevalence{
			ID:          chk.ID,
			Severity:    chk.Severity,
			Description: chk.Description,
			Citation:    chk.Citation,
			Chains:      chainsPer[chk.ID],
			ChainShare:  stats.Ratio(int64(chainsPer[chk.ID]), int64(s.Chains)),
			Findings:    findingsPer[chk.ID],
			Conns:       c.ConnsPerCheck[chk.ID],
		})
	}
	for _, set := range c.SerialCerts {
		if len(set) > 1 {
			s.SerialReuseClusters++
		}
	}
	return s
}

// Render produces the prevalence table as text.
func (s *CorpusSummary) Render() string {
	var b strings.Builder
	t := &stats.Table{
		Title: fmt.Sprintf("Corpus lint (profile %q): %d distinct chains, %s observations, %s conns",
			s.Profile, s.Chains,
			stats.FormatCount(s.Observations), stats.FormatCount(s.Conns)),
		Headers: []string{"Check", "Sev", "#.Chains", "%Chains", "#.Findings", "#.Conns"},
	}
	for _, c := range s.Checks {
		t.AddRow(c.ID, c.Severity.String(), fmt.Sprint(c.Chains), stats.Pct(c.ChainShare),
			fmt.Sprint(c.Findings), stats.FormatCount(c.Conns))
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "Corpus-level serial-reuse clusters (issuer+serial shared by distinct certs): %d\n",
		s.SerialReuseClusters)
	return b.String()
}
