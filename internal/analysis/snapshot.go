package analysis

import (
	"fmt"
	"sort"
	"strings"

	"certchains/internal/certmodel"
	"certchains/internal/chain"
	"certchains/internal/dga"
	"certchains/internal/graph"
	"certchains/internal/intercept"
	"certchains/internal/lint"
	"certchains/internal/stats"
)

// This file serializes accumulator state so the ingest daemon can persist
// windows across restarts without re-reading log history. The codec captures
// a partialReport exactly: a restored accumulator merges and finalizes
// byte-identically to the original (the window equivalence suite enforces
// this across seeds and worker widths).
//
// Certificates are deduplicated through a snapshot-wide table: partials
// reference chains by their fingerprint keys, and every structure analysis is
// recomputed on restore (Classifier.Analyze is deterministic), so the
// serialized form stays proportional to distinct chains rather than to
// retained pointers.

// dgaSnapshot serializes dga.ClusterStats.
type dgaSnapshot struct {
	Certificates int      `json:"certificates,omitempty"`
	Connections  int      `json:"connections,omitempty"`
	ClientIPs    []string `json:"client_ips,omitempty"`
	MinValidity  int      `json:"min_validity"`
	MaxValidity  int      `json:"max_validity"`
}

func snapDGA(s *dga.ClusterStats) dgaSnapshot {
	return dgaSnapshot{
		Certificates: s.Certificates,
		Connections:  s.Connections,
		ClientIPs:    stats.SortedSet(s.ClientIPs),
		MinValidity:  s.MinValidity,
		MaxValidity:  s.MaxValidity,
	}
}

func restoreDGA(s dgaSnapshot) *dga.ClusterStats {
	out := dga.NewClusterStats()
	out.Certificates = s.Certificates
	out.Connections = s.Connections
	out.ClientIPs = stats.SetFromSlice(s.ClientIPs)
	out.MinValidity = s.MinValidity
	out.MaxValidity = s.MaxValidity
	return out
}

// excludedPair is one Figure 1 outlier as (sequence, length).
type excludedPair [2]int

// partialSnapshot is the serialized form of one partialReport. Integer-keyed
// maps (chain.Category and friends) marshal through encoding/json's sorted
// textual keys, and every slice is emitted in sorted order, so equal
// accumulators serialize byte-identically.
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

	IPSets             map[chain.Category][]string     `json:"ip_sets,omitempty"`
	EstByVerdict       map[chain.Verdict][2]int64      `json:"est_by_verdict,omitempty"`
	HybridGraph        *graph.Snapshot                 `json:"hybrid_graph,omitempty"`
	NonPubGraph        *graph.Snapshot                 `json:"nonpub_graph,omitempty"`
	InterceptGraph     *graph.Snapshot                 `json:"intercept_graph,omitempty"`
	Detected           []string                        `json:"detected,omitempty"`
	SectorConns        map[intercept.Category]int64    `json:"sector_conns,omitempty"`
	SectorIPs          map[intercept.Category][]string `json:"sector_ips,omitempty"`
	PortHist           map[string]map[int]int64        `json:"port_hist,omitempty"`
	HybridServerChains map[string][]string             `json:"hybrid_server_chains,omitempty"`
	MissingIssuerIPs   []string                        `json:"missing_issuer_ips,omitempty"`
	DGA                dgaSnapshot                     `json:"dga"`
	BCSeen             map[string][]string             `json:"bc_seen,omitempty"`
	BCAbsent           map[string][]string             `json:"bc_absent,omitempty"`
	SingleConns        int64                           `json:"single_conns,omitempty"`
	SingleNoSNI        int64                           `json:"single_no_sni,omitempty"`
	Excluded           []excludedPair                  `json:"excluded,omitempty"`
	// Chains holds the analysis cache as sorted chain keys; analyses are
	// recomputed from the certificate table on restore.
	Chains []string             `json:"chains,omitempty"`
	Lint   *lint.CorpusSnapshot `json:"lint,omitempty"`
}

func snapFPSet(set map[certmodel.Fingerprint]bool) []string {
	tmp := make(map[string]bool, len(set))
	for fp := range set {
		tmp[string(fp)] = true
	}
	return stats.SortedSet(tmp)
}

func restoreFPSet(keys []string) map[certmodel.Fingerprint]bool {
	out := make(map[certmodel.Fingerprint]bool, len(keys))
	for _, k := range keys {
		out[certmodel.Fingerprint(k)] = true
	}
	return out
}

// snapshot serializes the accumulator, registering every certificate its
// cached chains reference into certs (the snapshot-wide table).
func (pr *partialReport) snapshot(certs map[certmodel.Fingerprint]*certmodel.Meta) *partialSnapshot {
	r := pr.rep
	s := &partialSnapshot{
		Table6:           r.Table6,
		Table8:           r.Table8,
		Sec42:            r.Sec42,
		SingleStats:      r.Sec43.SingleStats,
		InterceptSingle:  r.Sec43.InterceptSingle,
		Sec63:            r.Sec63,
		Figure6:          r.Figure6.Hist.Snapshot(),
		HybridGraph:      pr.hybridGraph.Snapshot(),
		NonPubGraph:      pr.nonPubGraph.Snapshot(),
		InterceptGraph:   pr.interceptGraph.Snapshot(),
		Detected:         stats.SortedSet(pr.detected),
		MissingIssuerIPs: stats.SortedSet(pr.missingIssuerIPs),
		DGA:              snapDGA(pr.dgaStats),
		SingleConns:      pr.singleConns,
		SingleNoSNI:      pr.singleNoSNI,
	}
	if len(r.Table2.PerCategory) > 0 {
		s.Table2 = make(map[chain.Category]CategoryStats, len(r.Table2.PerCategory))
		for cat, cs := range r.Table2.PerCategory {
			s.Table2[cat] = *cs
		}
	}
	if len(r.Table3.Counts) > 0 {
		s.Table3 = make(map[chain.HybridCategory]int, len(r.Table3.Counts))
		for k, v := range r.Table3.Counts {
			s.Table3[k] = v
		}
	}
	if len(r.Table7.Counts) > 0 {
		s.Table7 = make(map[chain.NoPathCategory]int, len(r.Table7.Counts))
		for k, v := range r.Table7.Counts {
			s.Table7[k] = v
		}
	}
	if len(r.Figure1.CDF) > 0 {
		s.Figure1 = make(map[chain.Category]stats.CDFSnapshot, len(r.Figure1.CDF))
		for cat, cdf := range r.Figure1.CDF {
			s.Figure1[cat] = cdf.Snapshot()
		}
	}
	if len(pr.ipSets) > 0 {
		s.IPSets = make(map[chain.Category][]string, len(pr.ipSets))
		for cat, set := range pr.ipSets {
			s.IPSets[cat] = stats.SortedSet(set)
		}
	}
	if len(pr.estByVerdict) > 0 {
		s.EstByVerdict = make(map[chain.Verdict][2]int64, len(pr.estByVerdict))
		for v, et := range pr.estByVerdict {
			s.EstByVerdict[v] = et
		}
	}
	if len(pr.sectorConns) > 0 {
		s.SectorConns = make(map[intercept.Category]int64, len(pr.sectorConns))
		for cat, c := range pr.sectorConns {
			s.SectorConns[cat] = c
		}
	}
	if len(pr.sectorIPs) > 0 {
		s.SectorIPs = make(map[intercept.Category][]string, len(pr.sectorIPs))
		for cat, set := range pr.sectorIPs {
			s.SectorIPs[cat] = stats.SortedSet(set)
		}
	}
	s.PortHist = make(map[string]map[int]int64, len(pr.portHist))
	for group, hist := range pr.portHist {
		cp := make(map[int]int64, len(hist))
		for port, c := range hist {
			cp[port] = c
		}
		s.PortHist[group] = cp
	}
	if len(pr.hybridServerChains) > 0 {
		s.HybridServerChains = make(map[string][]string, len(pr.hybridServerChains))
		for srv, chains := range pr.hybridServerChains {
			s.HybridServerChains[srv] = stats.SortedSet(chains)
		}
	}
	s.BCSeen = map[string][]string{}
	s.BCAbsent = map[string][]string{}
	for pos, set := range pr.bcSeen {
		s.BCSeen[pos] = snapFPSet(set)
	}
	for pos, set := range pr.bcAbsent {
		s.BCAbsent[pos] = snapFPSet(set)
	}
	excluded := append([]excludedLength(nil), pr.excluded...)
	sort.Slice(excluded, func(i, j int) bool { return excluded[i].seq < excluded[j].seq })
	for _, ex := range excluded {
		s.Excluded = append(s.Excluded, excludedPair{ex.seq, ex.length})
	}
	for k, a := range pr.analyses {
		s.Chains = append(s.Chains, k)
		for _, m := range a.Chain {
			certs[m.FP] = m
		}
	}
	sort.Strings(s.Chains)
	if pr.lintReport != nil {
		s.Lint = pr.lintReport.Snapshot()
	}
	return s
}

// restorePartial rebuilds an accumulator from its serialized form; resolve
// maps fingerprints back to the snapshot-wide certificate table.
func (p *Pipeline) restorePartial(s *partialSnapshot,
	resolve func(certmodel.Fingerprint) *certmodel.Meta) (*partialReport, error) {

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
	for k, v := range s.Table3 {
		r.Table3.Counts[k] = v
	}
	for k, v := range s.Table7 {
		r.Table7.Counts[k] = v
	}
	for cat, cdf := range s.Figure1 {
		r.Figure1.CDF[cat] = stats.CDFFromSnapshot(cdf)
	}
	for cat, ips := range s.IPSets {
		pr.ipSets[cat] = stats.SetFromSlice(ips)
	}
	for v, et := range s.EstByVerdict {
		pr.estByVerdict[v] = et
	}
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
	pr.detected = stats.SetFromSlice(s.Detected)
	for cat, c := range s.SectorConns {
		pr.sectorConns[cat] = c
	}
	for cat, ips := range s.SectorIPs {
		pr.sectorIPs[cat] = stats.SetFromSlice(ips)
	}
	for group, hist := range s.PortHist {
		dst := pr.portHist[group]
		if dst == nil {
			dst = make(map[int]int64, len(hist))
			pr.portHist[group] = dst
		}
		for port, c := range hist {
			dst[port] = c
		}
	}
	for srv, chains := range s.HybridServerChains {
		pr.hybridServerChains[srv] = stats.SetFromSlice(chains)
	}
	pr.missingIssuerIPs = stats.SetFromSlice(s.MissingIssuerIPs)
	pr.dgaStats = restoreDGA(s.DGA)
	for pos, fps := range s.BCSeen {
		pr.bcSeen[pos] = restoreFPSet(fps)
	}
	for pos, fps := range s.BCAbsent {
		pr.bcAbsent[pos] = restoreFPSet(fps)
	}
	pr.singleConns = s.SingleConns
	pr.singleNoSNI = s.SingleNoSNI
	for _, ex := range s.Excluded {
		pr.excluded = append(pr.excluded, excludedLength{seq: ex[0], length: ex[1]})
	}
	for _, key := range s.Chains {
		ch, err := chainFromKey(key, resolve)
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

// chainFromKey rebuilds a delivered chain from its fingerprint key.
func chainFromKey(key string, resolve func(certmodel.Fingerprint) *certmodel.Meta) (certmodel.Chain, error) {
	if key == "" {
		return nil, fmt.Errorf("analysis: empty chain key in snapshot")
	}
	fps := strings.Split(key, "|")
	ch := make(certmodel.Chain, 0, len(fps))
	for _, fp := range fps {
		m := resolve(certmodel.Fingerprint(fp))
		if m == nil {
			return nil, fmt.Errorf("analysis: snapshot references unknown certificate %s", fp)
		}
		ch = append(ch, m)
	}
	return ch, nil
}
