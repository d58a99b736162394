package analysis

import (
	"fmt"
	"strings"

	"certchains/internal/chain"
	"certchains/internal/stats"
)

// Render produces the full text report: every reproduced table and figure in
// the paper's order.
func (r *Report) Render() string {
	var b strings.Builder
	w := func(format string, args ...any) { fmt.Fprintf(&b, format, args...) }

	// ---- Table 1 ---------------------------------------------------------
	t1 := &stats.Table{
		Title:   "Table 1: Categories of issuers conducting TLS interception",
		Headers: []string{"Category", "#.Issuers", "%Connections", "#.ClientIPs"},
	}
	for _, s := range r.Table1.Sectors {
		t1.AddRow(string(s.Category), fmt.Sprint(s.Issuers), stats.Pct(s.ConnShare), stats.FormatCount(int64(s.ClientIPs)))
	}
	t1.AddRow("TOTAL", fmt.Sprint(r.Table1.TotalIssuers), "", "")
	b.WriteString(t1.String())
	w("Issuer DNs independently flagged by CT cross-reference: %d\n\n", r.Table1.DetectedIssuers)

	// ---- Table 2 ---------------------------------------------------------
	t2 := &stats.Table{
		Title:   "Table 2: Statistics of certificate chains",
		Headers: []string{"Category", "#.Chains", "#.Conns", "#.ClientIPs", "Est.rate"},
	}
	for _, cat := range []chain.Category{chain.PublicDBOnly, chain.NonPublicDBOnly, chain.Hybrid, chain.Interception} {
		cs := r.Table2.PerCategory[cat]
		if cs == nil {
			continue
		}
		t2.AddRow(cat.String(), stats.FormatCount(int64(cs.Chains)), stats.FormatCount(cs.Conns),
			stats.FormatCount(int64(cs.ClientIPs)), stats.Pct(stats.Ratio(cs.Established, cs.Conns)))
	}
	t2.AddRow("TOTAL", stats.FormatCount(int64(r.Table2.TotalChains)), "", "", "")
	b.WriteString(t2.String())
	b.WriteByte('\n')

	// ---- Figure 1 ---------------------------------------------------------
	w("Figure 1: Distribution of certificate chain length (CDF)\n")
	w("%-20s", "length")
	lengths := []int{1, 2, 3, 4, 5, 6, 8, 12, 16, 24}
	for _, l := range lengths {
		w("%7d", l)
	}
	b.WriteByte('\n')
	for _, cat := range []chain.Category{chain.PublicDBOnly, chain.NonPublicDBOnly, chain.Hybrid, chain.Interception} {
		cdf := r.Figure1.CDF[cat]
		if cdf == nil {
			continue
		}
		w("%-20s", cat.String())
		for _, l := range lengths {
			w("%7.3f", cdf.At(l))
		}
		b.WriteByte('\n')
	}
	if len(r.Figure1.Excluded) > 0 {
		w("Excluded pathological chain lengths: %v\n", r.Figure1.Excluded)
	}
	b.WriteByte('\n')

	// ---- Table 3 ---------------------------------------------------------
	t3 := &stats.Table{
		Title:   "Table 3: Statistics of hybrid certificate chains",
		Headers: []string{"Hybrid chain category", "#.Chains"},
	}
	t3.AddRow("(1) complete: non-pub chained to pub", fmt.Sprint(r.Table3.Counts[chain.HybridCompleteNonPubToPub]))
	t3.AddRow("(1) complete: pub chained to prv", fmt.Sprint(r.Table3.Counts[chain.HybridCompletePubToPrv]))
	t3.AddRow("(1) complete: other", fmt.Sprint(r.Table3.Counts[chain.HybridCompleteOther]))
	t3.AddRow("(2) contains complete matched path", fmt.Sprint(r.Table3.Counts[chain.HybridContainsComplete]))
	t3.AddRow("(3) no complete matched path", fmt.Sprint(r.Table3.Counts[chain.HybridNoComplete]))
	t3.AddRow("TOTAL", fmt.Sprint(r.Table3.Total))
	b.WriteString(t3.String())
	w("Establishment rates: complete %s, contains %s, no-path %s\n\n",
		stats.Pct(r.Table3.EstablishRate[chain.VerdictCompletePath]),
		stats.Pct(r.Table3.EstablishRate[chain.VerdictContainsPath]),
		stats.Pct(r.Table3.EstablishRate[chain.VerdictNoPath]))

	// ---- §4.2 extras ------------------------------------------------------
	w("§4.2: anchored non-public leaves CT-logged: %d/%d; expired-leaf chains: %d; Fake LE chains: %d; multi-chain servers: %d\n",
		r.Sec42.CTLoggedAnchoredLeaves, r.Sec42.AnchoredLeaves, r.Sec42.ExpiredLeafChains,
		r.Sec42.FakeLEChains, r.Sec42.MultiChainServers)
	bd := r.Sec42.ContainsBreakdown
	w("§4.2 (F.2) contains-path patterns: Fake-LE %d, self-signed appended %d, leaf-first %d, extra roots %d, other %d\n",
		bd.FakeLE, bd.SelfSignedAppended, bd.LeafFirst, bd.ExtraRoots, bd.Other)
	w("§4.2 public leaf without issuing intermediate: %d chains, %s conns (%s established), %d client IPs; %d of %d validate via trust-store completion (§6.1)\n\n",
		r.Sec42.MissingIssuerChains, stats.FormatCount(r.Sec42.MissingIssuerConns),
		stats.Pct(stats.Ratio(r.Sec42.MissingIssuerEstablished, r.Sec42.MissingIssuerConns)),
		r.Sec42.MissingIssuerClientIPs,
		r.Sec42.MissingIssuerStoreCompletable, r.Sec42.MissingIssuerChains)

	// ---- Table 6 ---------------------------------------------------------
	t6 := &stats.Table{
		Title:   "Table 6: Non-public-DB issuer-issued chains anchored to public roots",
		Headers: []string{"Category", "#.Chains"},
	}
	t6.AddRow("Corporate", fmt.Sprint(r.Table6.Corporate))
	t6.AddRow("Government", fmt.Sprint(r.Table6.Government))
	b.WriteString(t6.String())
	b.WriteByte('\n')

	// ---- Figure 4 ---------------------------------------------------------
	w("Figure 4: Chain structures of contains-path hybrid chains (%d chains)\n", len(r.Figure4.Chains))
	w("  legend: complete path P(public)/N(non-public); partial p/n; single o/x\n")
	maxLen := 0
	for _, row := range r.Figure4.Chains {
		if len(row) > maxLen {
			maxLen = len(row)
		}
	}
	for pos := maxLen - 1; pos >= 0; pos-- {
		w("  %2d ", pos+1)
		for _, row := range r.Figure4.Chains {
			if pos >= len(row) {
				b.WriteByte(' ')
				continue
			}
			b.WriteByte(cellGlyph(row[pos]))
		}
		b.WriteByte('\n')
	}
	b.WriteByte('\n')

	// ---- Table 7 ---------------------------------------------------------
	t7 := &stats.Table{
		Title:   "Table 7: Categorization of chains without a complete matched path",
		Headers: []string{"Category", "#.Chains"},
	}
	for _, nc := range []chain.NoPathCategory{
		chain.NoPathSelfSignedLeafMismatch, chain.NoPathSelfSignedLeafValidSub,
		chain.NoPathAllMismatched, chain.NoPathPartial,
		chain.NoPathPrivateRootAppended, chain.NoPathPrivateRootMismatch,
	} {
		t7.AddRow(nc.String(), fmt.Sprint(r.Table7.Counts[nc]))
	}
	t7.AddRow("TOTAL", fmt.Sprint(r.Table7.Total))
	b.WriteString(t7.String())
	b.WriteByte('\n')

	// ---- Figure 6 ---------------------------------------------------------
	w("Figure 6: Distribution of mismatch ratios (no-path hybrid chains)\n")
	for i, n := range r.Figure6.Hist.Bins {
		w("  %s %s\n", r.Figure6.Hist.BinLabel(i), strings.Repeat("#", int(n)))
	}
	w("Share with ratio >= 0.5: %s\n\n", stats.Pct(r.Figure6.ShareAtOrAbove05))

	// ---- §4.3 -------------------------------------------------------------
	w("§4.3: non-public-DB-only single-cert chains: %d (%s self-signed); interception single-cert: %d (%s self-signed)\n",
		r.Sec43.SingleStats.Total, stats.Pct(r.Sec43.SingleStats.SelfSignedShare()),
		r.Sec43.InterceptSingle.Total, stats.Pct(r.Sec43.InterceptSingle.SelfSignedShare()))
	w("§4.3: basicConstraints absent: first-position %s, subsequent %s; single-cert connections without SNI: %s\n",
		stats.Pct(r.Sec43.BCAbsentFirst), stats.Pct(r.Sec43.BCAbsentSubsequent), stats.Pct(r.Sec43.NoSNIShare))
	w("§4.3: DGA cluster: %d certs, %s connections, %d client IPs, validity %d–%d days\n\n",
		r.Sec43.DGACerts, stats.FormatCount(r.Sec43.DGAConns), r.Sec43.DGAClients,
		r.Sec43.DGAMinDays, r.Sec43.DGAMaxDays)

	// ---- Table 8 ---------------------------------------------------------
	t8 := &stats.Table{
		Title:   "Table 8: Multi-certificate chain structure",
		Headers: []string{"", "Non-public-DB-only", "TLS interception"},
	}
	t8.AddRow("Is a matched path (%)", stats.Pct(r.Table8.NonPub.MatchedShare()), stats.Pct(r.Table8.Interception.MatchedShare()))
	t8.AddRow("Contains a matched path (#)", fmt.Sprint(r.Table8.NonPub.ContainsMatch), fmt.Sprint(r.Table8.Interception.ContainsMatch))
	t8.AddRow("No matched path (#)", fmt.Sprint(r.Table8.NonPub.NoMatch), fmt.Sprint(r.Table8.Interception.NoMatch))
	b.WriteString(t8.String())
	b.WriteByte('\n')

	// ---- Table 4 ---------------------------------------------------------
	t4 := &stats.Table{
		Title:   "Table 4: Port distribution of connections",
		Headers: []string{"Group", "Top ports"},
	}
	t4.AddRow("hybrid", topPorts(r.Table4.Hybrid))
	t4.AddRow("non-pub single", topPorts(r.Table4.NonPubSingle))
	t4.AddRow("non-pub multi", topPorts(r.Table4.NonPubMulti))
	t4.AddRow("interception", topPorts(r.Table4.Interception))
	b.WriteString(t4.String())
	b.WriteByte('\n')

	// ---- §6.3 ---------------------------------------------------------------
	w("§6.3: TLS 1.3 connections without visible certificates: %s of all TLS connections (%s conns)\n\n",
		stats.Pct(r.Sec63.TLS13Share()), stats.FormatCount(r.Sec63.TLS13Conns))

	// ---- Figures 5, 7, 8 ---------------------------------------------------
	w("Figure 5 (hybrid co-occurrence graph): %s\n", summaryLine(r.Figure5))
	w("Figure 7 (non-public-DB-only graph):   %s\n", summaryLine(r.Figure7))
	w("Figure 8 (interception graph, no leaves): %s\n", summaryLine(r.Figure8))

	// ---- Corpus lint -------------------------------------------------------
	if r.Lint != nil {
		b.WriteByte('\n')
		b.WriteString(r.Lint.Render())
	}
	return b.String()
}

func cellGlyph(c PositionCell) byte {
	switch c.Segment {
	case "complete":
		if c.Public {
			return 'P'
		}
		return 'N'
	case "partial":
		if c.Public {
			return 'p'
		}
		return 'n'
	default:
		if c.Public {
			return 'o'
		}
		return 'x'
	}
}

func topPorts(shares []PortShare) string {
	var parts []string
	var other float64
	for i, p := range shares {
		if i >= 5 {
			other += p.Share
			continue
		}
		parts = append(parts, fmt.Sprintf("%d:%s", p.Port, stats.Pct(p.Share)))
	}
	if other > 0 {
		parts = append(parts, "other:"+stats.Pct(other))
	}
	return strings.Join(parts, "  ")
}

func summaryLine(g GraphSummary) string {
	return fmt.Sprintf("%d nodes (%d public, %d non-public; %d leaf/%d int/%d root), %d edges, %d components (largest %d), %d complex intermediates",
		g.Nodes, g.PublicNodes, g.NonPublicNodes, g.Leaves, g.Inters, g.Roots,
		g.Edges, g.Components, g.LargestComponent, g.ComplexIntermediates)
}
