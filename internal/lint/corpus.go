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
type CorpusReport struct {
	linter *Linter //certchain:nomerge shared deterministic lint engine, not accumulated state
	// observations / conns count every linted observation additively.
	observations int64
	conns        int64
	// findingsPerChain maps chain key -> check ID -> finding count; it doubles
	// as the shard-local lint cache (each distinct chain is linted once per
	// shard).
	findingsPerChain map[string]map[string]int
	// connsPerCheck maps check ID -> connections to chains that trigger it.
	connsPerCheck map[string]int64
	// serialCerts maps normalized issuer + serial -> distinct certificates,
	// for the corpus-level serial-reuse clusters the in-chain check cannot
	// see (§4.3 non-compliant private issuance).
	serialCerts stats.Sets[string, certmodel.Fingerprint]
}

// NewCorpusReport creates an empty accumulator linting with l.
func NewCorpusReport(l *Linter) *CorpusReport {
	return &CorpusReport{
		linter:           l,
		findingsPerChain: make(map[string]map[string]int),
		connsPerCheck:    make(map[string]int64),
		serialCerts:      stats.Sets[string, certmodel.Fingerprint]{},
	}
}

// Observe lints one observed chain delivery carrying conns connections.
func (c *CorpusReport) Observe(ch certmodel.Chain, conns int64) {
	c.ObserveAnalyzed(ch, c.linter.cl.Analyze(ch), conns)
}

// ObserveAnalyzed is Observe with a precomputed structural analysis (the
// pipeline already holds one per distinct chain).
func (c *CorpusReport) ObserveAnalyzed(ch certmodel.Chain, a *chain.Analysis, conns int64) {
	c.observations++
	c.conns += conns
	key := ch.Key()
	perCheck, seen := c.findingsPerChain[key]
	if !seen {
		perCheck = make(map[string]int)
		for _, f := range c.linter.ChainAnalyzed(ch, a) {
			perCheck[f.Check]++
		}
		c.findingsPerChain[key] = perCheck
		for _, m := range ch {
			if m.SerialHex == "" {
				continue
			}
			c.serialCerts.Add(m.Issuer.Normalized()+"|"+m.SerialHex, m.FP)
		}
	}
	for id := range perCheck {
		c.connsPerCheck[id] += conns
	}
}

// Merge folds another shard's accumulator into this one. Both accumulators
// must lint with the same configuration.
func (c *CorpusReport) Merge(o *CorpusReport) {
	c.observations += o.observations
	c.conns += o.conns
	for k, perCheck := range o.findingsPerChain {
		if _, ok := c.findingsPerChain[k]; !ok {
			c.findingsPerChain[k] = perCheck
		}
	}
	for id, n := range o.connsPerCheck {
		c.connsPerCheck[id] += n
	}
	c.serialCerts.Union(o.serialCerts)
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
		Chains:       len(c.findingsPerChain),
		Observations: c.observations,
		Conns:        c.conns,
	}
	chainsPer := make(map[string]int)
	findingsPer := make(map[string]int64)
	for _, perCheck := range c.findingsPerChain {
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
			Conns:       c.connsPerCheck[chk.ID],
		})
	}
	for _, set := range c.serialCerts {
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
