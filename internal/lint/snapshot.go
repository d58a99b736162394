package lint

import (
	"maps"

	"certchains/internal/certmodel"
	"certchains/internal/stats"
)

// CorpusSnapshot is the serialized form of a CorpusReport. Per-chain finding
// maps are carried verbatim (linting is deterministic per chain, so restored
// entries are exactly what a re-lint would compute, and ObserveAnalyzed's
// chain-key cache keeps them from being recomputed after restore). The
// linter itself is not serialized — the restoring side must supply one with
// the same configuration.
//
// A snapshot shares its maps with the live accumulator: every caller encodes
// it at once, under the lock that keeps writers out, and restore copies what
// it decodes into a fresh accumulator.
type CorpusSnapshot struct {
	Observations     int64                                     `json:"observations"`
	Conns            int64                                     `json:"conns"`
	FindingsPerChain map[string]map[string]int                 `json:"findings_per_chain,omitempty"`
	ConnsPerCheck    map[string]int64                          `json:"conns_per_check,omitempty"`
	SerialCerts      stats.Sets[string, certmodel.Fingerprint] `json:"serial_certs,omitempty"`
}

// Snapshot serializes the accumulator.
func (c *CorpusReport) Snapshot() *CorpusSnapshot {
	return &CorpusSnapshot{
		Observations:     c.observations,
		Conns:            c.conns,
		FindingsPerChain: c.findingsPerChain,
		ConnsPerCheck:    c.connsPerCheck,
		SerialCerts:      c.serialCerts,
	}
}

// CorpusFromSnapshot rebuilds an accumulator linting with l, which must be
// configured identically to the linter the snapshot was taken under. A
// per-chain finding map is never written after it is first filled, so the
// restored accumulator may share the decoded ones, as Merge does.
func CorpusFromSnapshot(l *Linter, s *CorpusSnapshot) *CorpusReport {
	c := NewCorpusReport(l)
	if s == nil {
		return c
	}
	c.observations = s.Observations
	c.conns = s.Conns
	maps.Copy(c.findingsPerChain, s.FindingsPerChain)
	maps.Copy(c.connsPerCheck, s.ConnsPerCheck)
	c.serialCerts.Union(s.SerialCerts)
	return c
}
