package analysis

import (
	"fmt"
	"maps"
	"sort"

	"certchains/internal/certmodel"
	"certchains/internal/chain"
	"certchains/internal/dga"
	"certchains/internal/graph"
	"certchains/internal/intercept"
	"certchains/internal/lint"
	"certchains/internal/stats"
)

// This file serializes accumulator state for the dist wire partials
// (EncodeState), the ring buckets (WindowRing.Snapshot) and the ingest
// daemon's snapshots. The codec captures a partialReport exactly: a restored
// accumulator merges and finalizes byte-identically to the original (the
// window equivalence suite enforces this across seeds and worker widths).
//
// Sets encode through stats.Set and chains through certmodel.CertTable: a
// partial references each cached chain by its fingerprint key against the
// enclosing snapshot's certificate table, and every structure analysis is
// recomputed on restore (Classifier.Analyze is deterministic), so the
// serialized form stays proportional to distinct chains rather than to
// retained pointers.

// dgaSnapshot serializes dga.ClusterStats.
type dgaSnapshot struct {
	Certificates int               `json:"certificates,omitempty"`
	Connections  int               `json:"connections,omitempty"`
	ClientIPs    stats.Set[string] `json:"client_ips,omitempty"`
	MinValidity  int               `json:"min_validity"`
	MaxValidity  int               `json:"max_validity"`
}

func snapDGA(s *dga.ClusterStats) dgaSnapshot {
	return dgaSnapshot{
		Certificates: s.Certificates,
		Connections:  s.Connections,
		ClientIPs:    s.ClientIPs,
		MinValidity:  s.MinValidity,
		MaxValidity:  s.MaxValidity,
	}
}

func restoreDGA(s dgaSnapshot) *dga.ClusterStats {
	out := dga.NewClusterStats()
	out.Certificates = s.Certificates
	out.Connections = s.Connections
	maps.Copy(out.ClientIPs, s.ClientIPs)
	out.MinValidity = s.MinValidity
	out.MaxValidity = s.MaxValidity
	return out
}

// excludedPair is one Figure 1 outlier as (sequence, length).
type excludedPair [2]int

// partialSnapshot is the serialized form of one partialReport. Integer-keyed
// maps (chain.Category and friends) marshal through encoding/json's sorted
// textual keys, sets through stats.Set's sorted members, and every slice is
// emitted in sorted order, so equal accumulators serialize byte-identically.
//
// A snapshot shares its maps and sets with the live partial: every caller
// encodes it at once, under the lock that keeps writers out, and restore
// copies what it decodes into a fresh partial.
type partialSnapshot struct {
	Table2          map[chain.Category]CategoryStats     `json:"table2,omitempty"`
	Table3          map[chain.HybridCategory]int         `json:"table3,omitempty"`
	Table6          Table6                               `json:"table6"`
	Table7          map[chain.NoPathCategory]int         `json:"table7,omitempty"`
	Table8          Table8                               `json:"table8"`
	Sec42           Sec42                                `json:"sec42"`
	SingleStats     chain.SingleCertStats                `json:"single_stats"`
	InterceptSingle chain.SingleCertStats                `json:"intercept_single"`
	Sec63           Sec63                                `json:"sec63"`
	Figure1         map[chain.Category]stats.CDFSnapshot `json:"figure1,omitempty"`
	Figure6         stats.HistogramSnapshot              `json:"figure6"`

	IPSets             stats.Sets[chain.Category, string]        `json:"ip_sets,omitempty"`
	EstByVerdict       map[chain.Verdict][2]int64                `json:"est_by_verdict,omitempty"`
	HybridGraph        *graph.Snapshot                           `json:"hybrid_graph,omitempty"`
	NonPubGraph        *graph.Snapshot                           `json:"nonpub_graph,omitempty"`
	InterceptGraph     *graph.Snapshot                           `json:"intercept_graph,omitempty"`
	Detected           stats.Set[string]                         `json:"detected,omitempty"`
	SectorConns        map[intercept.Category]int64              `json:"sector_conns,omitempty"`
	SectorIPs          stats.Sets[intercept.Category, string]    `json:"sector_ips,omitempty"`
	PortHist           map[string]map[int]int64                  `json:"port_hist,omitempty"`
	HybridServerChains stats.Sets[string, string]                `json:"hybrid_server_chains,omitempty"`
	MissingIssuerIPs   stats.Set[string]                         `json:"missing_issuer_ips,omitempty"`
	DGA                dgaSnapshot                               `json:"dga"`
	BCSeen             stats.Sets[string, certmodel.Fingerprint] `json:"bc_seen,omitempty"`
	BCAbsent           stats.Sets[string, certmodel.Fingerprint] `json:"bc_absent,omitempty"`
	SingleConns        int64                                     `json:"single_conns,omitempty"`
	SingleNoSNI        int64                                     `json:"single_no_sni,omitempty"`
	Excluded           []excludedPair                            `json:"excluded,omitempty"`
	// Chains holds the analysis cache as sorted chain keys; analyses are
	// recomputed from the certificate table on restore.
	Chains []string             `json:"chains,omitempty"`
	Lint   *lint.CorpusSnapshot `json:"lint,omitempty"`
}

// snapshot serializes the accumulator, registering every certificate its
// cached chains reference into certs (the snapshot-wide table).
func (pr *partialReport) snapshot(certs certmodel.CertTable) *partialSnapshot {
	r := pr.rep
	s := &partialSnapshot{
		Table2:             make(map[chain.Category]CategoryStats, len(r.Table2.PerCategory)),
		Table3:             r.Table3.Counts,
		Table6:             r.Table6,
		Table7:             r.Table7.Counts,
		Table8:             r.Table8,
		Sec42:              r.Sec42,
		SingleStats:        r.Sec43.SingleStats,
		InterceptSingle:    r.Sec43.InterceptSingle,
		Sec63:              r.Sec63,
		Figure1:            make(map[chain.Category]stats.CDFSnapshot, len(r.Figure1.CDF)),
		Figure6:            r.Figure6.Hist.Snapshot(),
		IPSets:             pr.ipSets,
		EstByVerdict:       pr.estByVerdict,
		HybridGraph:        pr.hybridGraph.Snapshot(),
		NonPubGraph:        pr.nonPubGraph.Snapshot(),
		InterceptGraph:     pr.interceptGraph.Snapshot(),
		Detected:           pr.detected,
		SectorConns:        pr.sectorConns,
		SectorIPs:          pr.sectorIPs,
		PortHist:           pr.portHist,
		HybridServerChains: pr.hybridServerChains,
		MissingIssuerIPs:   pr.missingIssuerIPs,
		DGA:                snapDGA(pr.dgaStats),
		BCSeen:             pr.bcSeen,
		BCAbsent:           pr.bcAbsent,
		SingleConns:        pr.singleConns,
		SingleNoSNI:        pr.singleNoSNI,
	}
	for cat, cs := range r.Table2.PerCategory {
		s.Table2[cat] = *cs
	}
	for cat, cdf := range r.Figure1.CDF {
		s.Figure1[cat] = cdf.Snapshot()
	}
	excluded := append([]excludedLength(nil), pr.excluded...)
	sort.Slice(excluded, func(i, j int) bool { return excluded[i].seq < excluded[j].seq })
	for _, ex := range excluded {
		s.Excluded = append(s.Excluded, excludedPair{ex.seq, ex.length})
	}
	for _, a := range pr.analyses {
		s.Chains = append(s.Chains, certs.Key(a.Chain))
	}
	sort.Strings(s.Chains)
	if pr.lintReport != nil {
		s.Lint = pr.lintReport.Snapshot()
	}
	return s
}

// restorePartial rebuilds an accumulator from its serialized form, resolving
// chain keys and graph nodes against the snapshot-wide certificate table.
// Decoded sets and counts are copied into the fresh partial's own (a field
// that omitempty dropped decodes to nil).
func (p *Pipeline) restorePartial(s *partialSnapshot, certs certmodel.CertTable) (*partialReport, error) {
	pr := p.newPartial()
	if s == nil {
		return pr, nil
	}
	r := pr.rep
	r.Table6 = s.Table6
	r.Table8 = s.Table8
	r.Sec42 = s.Sec42
	r.Sec43.SingleStats = s.SingleStats
	r.Sec43.InterceptSingle = s.InterceptSingle
	r.Sec63 = s.Sec63
	r.Figure6.Hist = stats.HistogramFromSnapshot(s.Figure6)
	for cat, cs := range s.Table2 {
		cp := cs
		r.Table2.PerCategory[cat] = &cp
	}
	maps.Copy(r.Table3.Counts, s.Table3)
	maps.Copy(r.Table7.Counts, s.Table7)
	for cat, cdf := range s.Figure1 {
		r.Figure1.CDF[cat] = stats.CDFFromSnapshot(cdf)
	}
	pr.ipSets.Union(s.IPSets)
	maps.Copy(pr.estByVerdict, s.EstByVerdict)
	resolve := func(fp certmodel.Fingerprint) *certmodel.Meta { return certs[fp] }
	var err error
	if pr.hybridGraph, err = graph.FromSnapshot(s.HybridGraph, resolve); err != nil {
		return nil, fmt.Errorf("analysis: restore hybrid graph: %w", err)
	}
	if pr.nonPubGraph, err = graph.FromSnapshot(s.NonPubGraph, resolve); err != nil {
		return nil, fmt.Errorf("analysis: restore nonpub graph: %w", err)
	}
	if pr.interceptGraph, err = graph.FromSnapshot(s.InterceptGraph, resolve); err != nil {
		return nil, fmt.Errorf("analysis: restore interception graph: %w", err)
	}
	pr.detected.Union(s.Detected)
	maps.Copy(pr.sectorConns, s.SectorConns)
	pr.sectorIPs.Union(s.SectorIPs)
	for group, hist := range s.PortHist {
		if pr.portHist[group] == nil {
			pr.portHist[group] = make(map[int]int64, len(hist))
		}
		maps.Copy(pr.portHist[group], hist)
	}
	pr.hybridServerChains.Union(s.HybridServerChains)
	pr.missingIssuerIPs.Union(s.MissingIssuerIPs)
	pr.dgaStats = restoreDGA(s.DGA)
	pr.bcSeen.Union(s.BCSeen)
	pr.bcAbsent.Union(s.BCAbsent)
	pr.singleConns = s.SingleConns
	pr.singleNoSNI = s.SingleNoSNI
	for _, ex := range s.Excluded {
		pr.excluded = append(pr.excluded, excludedLength{seq: ex[0], length: ex[1]})
	}
	for _, key := range s.Chains {
		if key == "" {
			return nil, fmt.Errorf("analysis: empty chain key in snapshot")
		}
		ch, err := certs.Chain(key)
		if err != nil {
			return nil, err
		}
		pr.analyze(ch)
	}
	if pr.lintReport != nil {
		pr.lintReport = lint.CorpusFromSnapshot(p.Linter, s.Lint)
	}
	return pr, nil
}
