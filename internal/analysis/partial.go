//certchain:hotpath — observe runs once per connection observation.

package analysis

import (
	"sort"

	"certchains/internal/campus"
	"certchains/internal/certmodel"
	"certchains/internal/chain"
	"certchains/internal/dga"
	"certchains/internal/graph"
	"certchains/internal/intercept"
	"certchains/internal/lint"
	"certchains/internal/stats"
)

// partialReport accumulates the enrichment of one observation shard. Every
// field is either an additive counter, a set (merged by union), a mergeable
// structure (stats.CDF, stats.Histogram, graph.Graph, dga.ClusterStats), or
// sequence-tagged (excluded outliers), so merging shard partials in any
// order and finalizing reproduces the single sequential pass byte for byte.
//
// The exported fields are the state, and their JSON tags are its wire
// format, in wire order (see snapshot.go); finalize builds the Report from
// them.
type partialReport struct {
	p *Pipeline // shared read-only pipeline config, identical across shards

	Table2          map[chain.Category]CategoryStats `json:"table2,omitempty"`
	Table3          map[chain.HybridCategory]int     `json:"table3,omitempty"`
	Table6          Table6                           `json:"table6"`
	Table7          map[chain.NoPathCategory]int     `json:"table7,omitempty"`
	Table8          Table8                           `json:"table8"`
	Sec42           Sec42                            `json:"sec42"`
	SingleStats     chain.SingleCertStats            `json:"single_stats"`
	InterceptSingle chain.SingleCertStats            `json:"intercept_single"`
	Sec63           Sec63                            `json:"sec63"`
	Figure1         map[chain.Category]*stats.CDF    `json:"figure1,omitempty"`
	Figure6         *stats.Histogram                 `json:"figure6"`

	IPSets         stats.Sets[chain.Category, string] `json:"ip_sets,omitempty"`
	EstByVerdict   map[chain.Verdict][2]int64         `json:"est_by_verdict,omitempty"` // established, total
	HybridGraph    *graph.Graph                       `json:"hybrid_graph,omitempty"`
	NonPubGraph    *graph.Graph                       `json:"nonpub_graph,omitempty"`
	InterceptGraph *graph.Graph                       `json:"intercept_graph,omitempty"`
	// Detected holds the issuer keys the CT cross-reference flagged.
	Detected           stats.Set[string]                      `json:"detected,omitempty"`
	SectorConns        map[intercept.Category]int64           `json:"sector_conns,omitempty"`
	SectorIPs          stats.Sets[intercept.Category, string] `json:"sector_ips,omitempty"`
	PortHist           map[string]map[int]int64               `json:"port_hist,omitempty"`
	HybridServerChains stats.Sets[string, string]             `json:"hybrid_server_chains,omitempty"`
	MissingIssuerIPs   stats.Set[string]                      `json:"missing_issuer_ips,omitempty"`
	DGA                *dga.ClusterStats                      `json:"dga"`
	// BCSeen/BCAbsent hold distinct certificates per delivery position
	// ("first"/"sub"), as §4.3 counts them; the absent subset tracks
	// basicConstraints omission. Set sizes yield the sequential counters.
	BCSeen      stats.Sets[string, certmodel.Fingerprint] `json:"bc_seen,omitempty"`
	BCAbsent    stats.Sets[string, certmodel.Fingerprint] `json:"bc_absent,omitempty"`
	SingleConns int64                                     `json:"single_conns,omitempty"`
	SingleNoSNI int64                                     `json:"single_no_sni,omitempty"`
	// Excluded records pathological outliers as (global observation
	// sequence, length) pairs. The report lists only the lengths, longest
	// first; the sequence tags stay because sealed v1 state carries them.
	Excluded outliers `json:"excluded,omitempty"`
	// Analyses caches structure analyses per unique chain key.
	Analyses analysisCache `json:"chains,omitempty"`
	// keyBuf is a reusable scratch buffer for composite map keys. Probing
	// with m[string(keyBuf)] compiles to an allocation-free lookup; a key
	// string is materialized only on first sight of a value.
	keyBuf []byte
	// Lint accumulates corpus lint findings; nil when the pipeline has no
	// linter.
	Lint *lint.CorpusReport `json:"lint,omitempty"`
}

// outliers are Figure 1 outliers as (sequence, length) pairs.
type outliers [][2]int

// newPartial creates an empty shard accumulator sharing the pipeline's
// read-only components.
func (p *Pipeline) newPartial() *partialReport {
	pr := &partialReport{
		p:              p,
		Table2:         make(map[chain.Category]CategoryStats),
		Table3:         make(map[chain.HybridCategory]int),
		Table7:         make(map[chain.NoPathCategory]int),
		Figure1:        make(map[chain.Category]*stats.CDF),
		Figure6:        stats.NewHistogram(0, 1, 10),
		IPSets:         stats.Sets[chain.Category, string]{},
		EstByVerdict:   make(map[chain.Verdict][2]int64),
		HybridGraph:    graph.New(),
		NonPubGraph:    graph.New(),
		InterceptGraph: graph.New(),
		Detected:       stats.Set[string]{},
		SectorConns:    make(map[intercept.Category]int64),
		SectorIPs:      stats.Sets[intercept.Category, string]{},
		PortHist: map[string]map[int]int64{
			"hybrid": {}, "nonpub-single": {}, "nonpub-multi": {}, "interception": {},
		},
		HybridServerChains: stats.Sets[string, string]{},
		MissingIssuerIPs:   stats.Set[string]{},
		DGA:                dga.NewClusterStats(),
		BCSeen:             stats.Sets[string, certmodel.Fingerprint]{"first": {}, "sub": {}},
		BCAbsent:           stats.Sets[string, certmodel.Fingerprint]{"first": {}, "sub": {}},
		Analyses:           make(analysisCache),
	}
	if p.Linter != nil {
		pr.Lint = lint.NewCorpusReport(p.Linter)
	}
	return pr
}

// analyze returns the cached structure analysis for a chain, computing it on
// first sight within this shard. Analyses are deterministic, so shards that
// re-analyze a chain another shard also saw produce identical results.
func (pr *partialReport) analyze(ch certmodel.Chain) *chain.Analysis {
	pr.keyBuf = ch.AppendKey(pr.keyBuf[:0])
	if a, ok := pr.Analyses[string(pr.keyBuf)]; ok {
		return a
	}
	key := string(pr.keyBuf)
	a := pr.p.Classifier.AnalyzeKeyed(key, ch)
	pr.Analyses[key] = a
	return a
}

// observe accumulates one observation. seq is the observation's position in
// the overall input order (used only to keep outlier reporting ordered).
func (pr *partialReport) observe(seq int, o *campus.Observation) {
	if o.TLS13 || len(o.Chain) == 0 {
		// §6.3: TLS 1.3 handshakes hide certificates from the passive
		// vantage — counted, never categorized.
		pr.Sec63.TLS13Conns += o.Conns
		return
	}
	pr.Sec63.VisibleConns += o.Conns
	a := pr.analyze(o.Chain)
	cat := a.Category
	if pr.Lint != nil {
		pr.Lint.ObserveAnalyzed(o.Chain, a, o.Conns)
	}

	// ---- Table 2 ----------------------------------------------------
	cs := pr.Table2[cat]
	cs.Chains++
	cs.Conns += o.Conns
	cs.Established += o.Established
	pr.Table2[cat] = cs
	pr.IPSets.Add(cat, o.ClientIPs...)

	// ---- Figure 1 ---------------------------------------------------
	if len(o.Chain) > pathologicalLength {
		pr.Excluded = append(pr.Excluded, [2]int{seq, len(o.Chain)})
	} else {
		cdf := pr.Figure1[cat]
		if cdf == nil {
			cdf = stats.NewCDF()
			pr.Figure1[cat] = cdf
		}
		cdf.Add(len(o.Chain), 1)
	}

	switch cat {
	case chain.Hybrid:
		pr.accumulateHybrid(o, a)
	case chain.NonPublicDBOnly:
		pr.accumulateNonPub(o, a)
	case chain.Interception:
		pr.accumulateInterception(o, a)
	}
}

func (pr *partialReport) accumulateHybrid(o *campus.Observation, a *chain.Analysis) {
	p := pr.p

	hc := chain.ClassifyHybrid(a)
	pr.Table3[hc]++

	et := pr.EstByVerdict[a.Verdict]
	et[0] += o.Established
	et[1] += o.Conns
	pr.EstByVerdict[a.Verdict] = et

	pr.HybridGraph.AddChain(o.Chain, a.Classes)
	pr.PortHist["hybrid"][o.Port] += o.Conns

	pr.keyBuf = append(pr.keyBuf[:0], o.ServerIP...)
	pr.keyBuf = append(pr.keyBuf, '|')
	pr.keyBuf = append(pr.keyBuf, o.Domain...)
	set := pr.HybridServerChains[string(pr.keyBuf)]
	if set == nil {
		set = make(stats.Set[string])
		pr.HybridServerChains[string(pr.keyBuf)] = set
	}
	pr.keyBuf = o.Chain.AppendKey(pr.keyBuf[:0])
	if !set[string(pr.keyBuf)] {
		set[string(pr.keyBuf)] = true
	}

	switch hc {
	case chain.HybridCompleteNonPubToPub:
		pr.Sec42.AnchoredLeaves++
		if p.CT.Contains(o.Chain[0].FP) {
			pr.Sec42.CTLoggedAnchoredLeaves++
		}
		if a.HasExpiredLeaf(o.Last) {
			pr.Sec42.ExpiredLeafChains++
		}
		// Table 6: the signing CA's organization attribute distinguishes
		// government PKIs from corporate deployments.
		if o.Chain[0].Issuer.Organization() == "Government" {
			pr.Table6.Government++
		} else {
			pr.Table6.Corporate++
		}
	case chain.HybridContainsComplete:
		if containsFakeLE(o.Chain) {
			pr.Sec42.FakeLEChains++
		}
		p.classifyContains(&pr.Sec42.ContainsBreakdown, a)
	case chain.HybridNoComplete:
		pr.Table7[chain.ClassifyNoPath(a)]++
		pr.Figure6.Add(a.MismatchRatio)
		if missingIssuer(a) {
			pr.Sec42.MissingIssuerChains++
			pr.Sec42.MissingIssuerConns += o.Conns
			pr.Sec42.MissingIssuerEstablished += o.Established
			for _, ip := range o.ClientIPs {
				pr.MissingIssuerIPs[ip] = true
			}
			if chain.StoreCompletable(p.DB, a) {
				pr.Sec42.MissingIssuerStoreCompletable++
			}
		}
	}
}

func (pr *partialReport) accumulateNonPub(o *campus.Observation, a *chain.Analysis) {
	if len(o.Chain) > pathologicalLength {
		// The oversized misconfiguration outliers are excluded from the
		// structural statistics, as in Figure 1.
		return
	}
	pr.NonPubGraph.AddChain(o.Chain, a.Classes)

	// basicConstraints omission rates over distinct non-public
	// certificates, by delivery position (§4.3).
	for i, m := range o.Chain {
		pos := "sub"
		if i == 0 {
			pos = "first"
		}
		if pr.BCSeen[pos][m.FP] {
			continue
		}
		pr.BCSeen[pos][m.FP] = true
		if m.BC == certmodel.BCAbsent {
			pr.BCAbsent[pos][m.FP] = true
		}
	}

	if len(o.Chain) == 1 {
		pr.SingleStats.Add(a)
		pr.PortHist["nonpub-single"][o.Port] += o.Conns
		pr.SingleConns += o.Conns
		pr.SingleNoSNI += o.NoSNI
		if dga.IsDGACertificate(o.Chain[0]) {
			pr.DGA.Add(o.Chain[0], int(o.Conns), o.ClientIPs)
		}
		return
	}
	pr.PortHist["nonpub-multi"][o.Port] += o.Conns
	switch a.MatchedVerdict {
	case chain.VerdictCompletePath:
		pr.Table8.NonPub.IsMatched++
	case chain.VerdictContainsPath:
		pr.Table8.NonPub.ContainsMatch++
	default:
		pr.Table8.NonPub.NoMatch++
	}
	pr.Table8.NonPub.MultiChains++
}

func (pr *partialReport) accumulateInterception(o *campus.Observation, a *chain.Analysis) {
	pr.InterceptGraph.AddChain(o.Chain, a.Classes)
	pr.PortHist["interception"][o.Port] += o.Conns

	if len(o.Chain) == 1 {
		pr.InterceptSingle.Add(a)
	} else if len(o.Chain) <= pathologicalLength {
		switch a.MatchedVerdict {
		case chain.VerdictCompletePath:
			pr.Table8.Interception.IsMatched++
		case chain.VerdictContainsPath:
			pr.Table8.Interception.ContainsMatch++
		default:
			pr.Table8.Interception.NoMatch++
		}
		pr.Table8.Interception.MultiChains++
	}

	// Independent CT cross-reference detection (§3.2.1).
	if o.Domain != "" {
		det := intercept.Detector{DB: pr.p.DB, CT: pr.p.CT}
		if det.Examine(o.Chain[0], o.Domain, o.First) == intercept.IssuerMismatch {
			pr.Detected[o.Chain[0].IssuerKey()] = true
		}
	}

	// Attribute to a curated entity for Table 1: match the leaf issuer or
	// any chain member's issuer against the registry.
	for _, m := range o.Chain {
		if iss, ok := pr.p.Registry.LookupKey(m.IssuerKey()); ok {
			pr.SectorConns[iss.Category] += o.Conns
			pr.SectorIPs.Add(iss.Category, o.ClientIPs...)
			break
		}
	}
}

// merge folds another shard's accumulator into this one. Every operation is
// commutative and associative (counter addition, set union, monotonic graph
// merge), so any merge order yields the same final report; the one
// order-sensitive artifact — the Figure 1 outlier list — carries sequence
// tags and is sorted during finalize.
func (pr *partialReport) merge(o *partialReport) {
	// Table 2.
	for cat, ocs := range o.Table2 {
		cs := pr.Table2[cat]
		cs.Chains += ocs.Chains
		cs.Conns += ocs.Conns
		cs.Established += ocs.Established
		pr.Table2[cat] = cs
	}
	pr.IPSets.Union(o.IPSets)

	// Table 3 / Table 7 counts and establishment pairs.
	addCounts(pr.Table3, o.Table3)
	addCounts(pr.Table7, o.Table7)
	for v, oet := range o.EstByVerdict {
		et := pr.EstByVerdict[v]
		et[0] += oet[0]
		et[1] += oet[1]
		pr.EstByVerdict[v] = et
	}

	// Table 6, Table 8, §4.2, §4.3 additive counters.
	pr.Table6.Corporate += o.Table6.Corporate
	pr.Table6.Government += o.Table6.Government
	mergeMultiCert(&pr.Table8.NonPub, &o.Table8.NonPub)
	mergeMultiCert(&pr.Table8.Interception, &o.Table8.Interception)
	mergeSec42(&pr.Sec42, &o.Sec42)
	mergeSingleCert(&pr.SingleStats, &o.SingleStats)
	mergeSingleCert(&pr.InterceptSingle, &o.InterceptSingle)
	pr.Sec63.TLS13Conns += o.Sec63.TLS13Conns
	pr.Sec63.VisibleConns += o.Sec63.VisibleConns

	// Figures 1 and 6.
	for cat, ocdf := range o.Figure1 {
		cdf := pr.Figure1[cat]
		if cdf == nil {
			cdf = stats.NewCDF()
			pr.Figure1[cat] = cdf
		}
		cdf.Merge(ocdf)
	}
	pr.Excluded = append(pr.Excluded, o.Excluded...)
	pr.Figure6.Merge(o.Figure6)

	// Graphs.
	pr.HybridGraph.Merge(o.HybridGraph)
	pr.NonPubGraph.Merge(o.NonPubGraph)
	pr.InterceptGraph.Merge(o.InterceptGraph)

	// Interception attribution and CT detection.
	pr.Detected.Union(o.Detected)
	addCounts(pr.SectorConns, o.SectorConns)
	pr.SectorIPs.Union(o.SectorIPs)

	// Ports, servers, missing issuers.
	for group, hist := range o.PortHist {
		addCounts(pr.PortHist[group], hist)
	}
	pr.HybridServerChains.Union(o.HybridServerChains)
	pr.MissingIssuerIPs.Union(o.MissingIssuerIPs)

	// §4.3 distinct-certificate sets and single-cert aggregates.
	pr.BCSeen.Union(o.BCSeen)
	pr.BCAbsent.Union(o.BCAbsent)
	pr.SingleConns += o.SingleConns
	pr.SingleNoSNI += o.SingleNoSNI
	pr.DGA.Merge(o.DGA)

	// Analysis cache union: duplicate keys hold identical analyses.
	for k, a := range o.Analyses {
		if _, ok := pr.Analyses[k]; !ok {
			pr.Analyses[k] = a
		}
	}

	if pr.Lint != nil {
		pr.Lint.Merge(o.Lint)
	}
}

// addCounts adds src's counters into dst.
func addCounts[K comparable, V int | int64](dst, src map[K]V) {
	for k, n := range src {
		dst[k] += n
	}
}

func mergeMultiCert(dst, src *MultiCertStats) {
	dst.MultiChains += src.MultiChains
	dst.IsMatched += src.IsMatched
	dst.ContainsMatch += src.ContainsMatch
	dst.NoMatch += src.NoMatch
}

func mergeSingleCert(dst, src *chain.SingleCertStats) {
	dst.Total += src.Total
	dst.SelfSigned += src.SelfSigned
	dst.DistinctNames += src.DistinctNames
}

func mergeSec42(dst, src *Sec42) {
	dst.AnchoredLeaves += src.AnchoredLeaves
	dst.CTLoggedAnchoredLeaves += src.CTLoggedAnchoredLeaves
	dst.ExpiredLeafChains += src.ExpiredLeafChains
	dst.FakeLEChains += src.FakeLEChains
	dst.MissingIssuerChains += src.MissingIssuerChains
	dst.MissingIssuerConns += src.MissingIssuerConns
	dst.MissingIssuerEstablished += src.MissingIssuerEstablished
	dst.MissingIssuerStoreCompletable += src.MissingIssuerStoreCompletable
	dst.ContainsBreakdown.FakeLE += src.ContainsBreakdown.FakeLE
	dst.ContainsBreakdown.SelfSignedAppended += src.ContainsBreakdown.SelfSignedAppended
	dst.ContainsBreakdown.LeafFirst += src.ContainsBreakdown.LeafFirst
	dst.ContainsBreakdown.ExtraRoots += src.ContainsBreakdown.ExtraRoots
	dst.ContainsBreakdown.Other += src.ContainsBreakdown.Other
	// MultiChainServers and MissingIssuerClientIPs derive from sets during
	// finalize; the per-shard values are never populated before then.
}

// finalize runs the finishing passes over the fully merged accumulator and
// returns the completed report, which shares the accumulator's maps and
// structures.
func (pr *partialReport) finalize() *Report {
	p := pr.p
	r := &Report{
		Table2:  Table2{PerCategory: make(map[chain.Category]*CategoryStats, len(pr.Table2))},
		Table3:  Table3{Counts: pr.Table3},
		Table6:  pr.Table6,
		Table7:  Table7{Counts: pr.Table7},
		Table8:  pr.Table8,
		Figure1: Figure1{CDF: pr.Figure1},
		Figure6: Figure6{Hist: pr.Figure6},
		Sec42:   pr.Sec42,
		Sec43:   Sec43{SingleStats: pr.SingleStats, InterceptSingle: pr.InterceptSingle},
		Sec63:   pr.Sec63,

		HybridGraph:    pr.HybridGraph,
		NonPubGraph:    pr.NonPubGraph,
		InterceptGraph: pr.InterceptGraph,
	}

	for _, ex := range pr.Excluded {
		r.Figure1.Excluded = append(r.Figure1.Excluded, ex[1])
	}
	sort.Sort(sort.Reverse(sort.IntSlice(r.Figure1.Excluded)))

	for cat, cs := range pr.Table2 {
		cs.ClientIPs = len(pr.IPSets[cat])
		r.Table2.PerCategory[cat] = &cs
		r.Table2.TotalChains += cs.Chains
	}

	r.Table3.EstablishRate = make(map[chain.Verdict]float64)
	for v, et := range pr.EstByVerdict {
		r.Table3.EstablishRate[v] = stats.Ratio(et[0], et[1])
	}
	for _, n := range r.Table3.Counts {
		r.Table3.Total += n
	}
	for _, n := range r.Table7.Counts {
		r.Table7.Total += n
	}
	for _, chains := range pr.HybridServerChains {
		if len(chains) > 1 {
			r.Sec42.MultiChainServers++
		}
	}
	r.Sec42.MissingIssuerClientIPs = len(pr.MissingIssuerIPs)

	r.Table1 = p.buildTable1(pr)
	r.Table4 = buildTable4(pr.PortHist)
	r.Figure4 = p.buildFigure4(pr.Analyses)
	r.Figure5 = summarizeGraph(pr.HybridGraph)
	r.Figure6.ShareAtOrAbove05 = r.Figure6.Hist.ShareAbove(0.5)
	r.Figure7 = summarizeGraph(pr.NonPubGraph)
	r.Figure8 = summarizeGraph(pr.InterceptGraph.WithoutLeaves())

	bcFirst, bcFirstAbsent := int64(len(pr.BCSeen["first"])), int64(len(pr.BCAbsent["first"]))
	bcSub, bcSubAbsent := int64(len(pr.BCSeen["sub"])), int64(len(pr.BCAbsent["sub"]))
	r.Sec43.BCAbsentFirst = stats.Ratio(bcFirstAbsent, bcFirst)
	r.Sec43.BCAbsentSubsequent = stats.Ratio(bcSubAbsent, bcSub)
	r.Sec43.BCFirstN = int(bcFirst)
	r.Sec43.BCSubsequentN = int(bcSub)
	r.Sec43.NoSNIShare = stats.Ratio(pr.SingleNoSNI, pr.SingleConns)
	r.Sec43.DGACerts = pr.DGA.Certificates
	r.Sec43.DGAConns = int64(pr.DGA.Connections)
	r.Sec43.DGAClients = len(pr.DGA.ClientIPs)
	if pr.DGA.Certificates > 0 {
		r.Sec43.DGAMinDays = pr.DGA.MinValidity
		r.Sec43.DGAMaxDays = pr.DGA.MaxValidity
	}
	if pr.Lint != nil {
		r.Lint = pr.Lint.Summarize()
	}
	return r
}
