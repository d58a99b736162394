// Package analysis orchestrates the full measurement pipeline of the paper
// (Figure 2): it consumes connection observations — either generated by
// internal/campus or re-aggregated from Zeek logs via Load — enriches every
// chain with the structure analyzer, and produces each table and figure of
// the evaluation as typed results plus a rendered text report.
package analysis

import (
	"certchains/internal/chain"
	"certchains/internal/graph"
	"certchains/internal/intercept"
	"certchains/internal/lint"
	"certchains/internal/stats"
)

// CategoryStats is one row of Table 2.
type CategoryStats struct {
	Chains      int
	Conns       int64
	Established int64
	ClientIPs   int
}

// Table2 summarizes chains, connections and client IPs per chain category.
type Table2 struct {
	PerCategory map[chain.Category]*CategoryStats
	TotalChains int
}

// InterceptionSector is one row of Table 1.
type InterceptionSector struct {
	Category  intercept.Category
	Issuers   int
	ConnShare float64
	ClientIPs int
}

// Table1 is the interception issuer categorization.
type Table1 struct {
	Sectors      []InterceptionSector
	TotalIssuers int
	// DetectedIssuers counts issuer DNs independently flagged by the CT
	// cross-reference during this run.
	DetectedIssuers int
}

// Table3 is the hybrid chain taxonomy.
type Table3 struct {
	Counts map[chain.HybridCategory]int
	// EstablishRate per structural group (§4.2's 97.69% / 92.04% / 57.42%).
	EstablishRate map[chain.Verdict]float64
	Total         int
}

// PortShare is one port's share of a group's connections.
type PortShare struct {
	Port  int
	Share float64
}

// Table4 is the port distribution per chain group.
type Table4 struct {
	Hybrid       []PortShare
	NonPubSingle []PortShare
	NonPubMulti  []PortShare
	Interception []PortShare
}

// Table6 summarizes the complete-path hybrid entities.
type Table6 struct {
	Corporate  int
	Government int
}

// Table7 is the no-complete-path hybrid categorization.
type Table7 struct {
	Counts map[chain.NoPathCategory]int
	Total  int
}

// MultiCertStats is one column of Table 8.
type MultiCertStats struct {
	MultiChains   int
	IsMatched     int
	ContainsMatch int
	NoMatch       int
}

// MatchedShare returns the fraction of multi-cert chains that are matched
// paths (99.76% non-public / 98.94% interception in the paper).
func (m *MultiCertStats) MatchedShare() float64 {
	if m.MultiChains == 0 {
		return 0
	}
	return float64(m.IsMatched) / float64(m.MultiChains)
}

// Table8 compares non-public-DB-only and interception multi-cert chains.
type Table8 struct {
	NonPub       MultiCertStats
	Interception MultiCertStats
}

// Figure1 holds the chain-length CDFs per category and the excluded
// pathological chains.
type Figure1 struct {
	CDF      map[chain.Category]*stats.CDF
	Excluded []int // lengths of the excluded outliers (3822, 921, 41)
}

// PositionCell is one cell of Figure 4: the class and segment kind of the
// certificate at one position of one chain.
type PositionCell struct {
	// Public reports the §3.2.1 class of the certificate.
	Public bool
	// Segment is "complete", "partial", or "single".
	Segment string
}

// Figure4 is the per-position structure matrix of the contains-path hybrids.
type Figure4 struct {
	// Chains[i][j] is the cell for certificate j of chain i (j = 0 is the
	// bottom of the delivered chain, matching the figure's index 1).
	Chains [][]PositionCell
}

// GraphSummary condenses one of the co-occurrence graphs (Figures 5, 7, 8).
type GraphSummary struct {
	Nodes, Edges          int
	PublicNodes           int
	NonPublicNodes        int
	Leaves, Inters, Roots int
	ComplexIntermediates  int
	Components            int
	LargestComponent      int
}

// Figure6 is the mismatch-ratio distribution of the no-path hybrids.
type Figure6 struct {
	Hist *stats.Histogram
	// ShareAtOrAbove05 reproduces the 56.74% headline.
	ShareAtOrAbove05 float64
}

// Sec42 carries the §4.2 hybrid findings beyond the tables.
type Sec42 struct {
	// CTLoggedAnchoredLeaves / AnchoredLeaves reproduce the "all 26 logged"
	// compliance finding.
	AnchoredLeaves         int
	CTLoggedAnchoredLeaves int
	ExpiredLeafChains      int
	FakeLEChains           int
	// MultiChainServers counts servers presenting multiple distinct hybrid
	// chains (19 in the paper).
	MultiChainServers int
	// MissingIssuerChains counts no-path hybrid chains that include a
	// public-DB leaf but no intermediate issuing it (56 in the paper),
	// with the associated traffic aggregates.
	MissingIssuerChains      int
	MissingIssuerConns       int64
	MissingIssuerEstablished int64
	MissingIssuerClientIPs   int
	// MissingIssuerStoreCompletable counts missing-issuer chains a
	// store-completing client (Chrome-style) would still validate — the
	// §6.1 "fragmented reliability" quantification.
	MissingIssuerStoreCompletable int
	// ContainsBreakdown classifies the 70 contains-path chains by
	// misconfiguration pattern (Appendix F.2).
	ContainsBreakdown ContainsBreakdown
}

// ContainsBreakdown is the Appendix F.2 categorization of contains-path
// hybrid chains.
type ContainsBreakdown struct {
	// FakeLE chains append the Let's Encrypt staging placeholder (14).
	FakeLE int
	// SelfSignedAppended chains append a self-signed corporate or
	// tooling certificate (the HP "tester" / Athenz patterns).
	SelfSignedAppended int
	// LeafFirst chains prepend an unrelated leaf before the complete path.
	LeafFirst int
	// ExtraRoots chains append additional root certificates.
	ExtraRoots int
	// Other covers remaining patterns.
	Other int
}

// Sec43 carries the §4.3 non-public findings.
type Sec43 struct {
	SingleStats     chain.SingleCertStats
	InterceptSingle chain.SingleCertStats
	// BCAbsentFirst / BCAbsentSubsequent reproduce the 55.31% / 78.32%
	// basicConstraints omission rates among non-public-DB certificates;
	// the N fields carry the distinct-certificate sample sizes.
	BCAbsentFirst      float64
	BCAbsentSubsequent float64
	BCFirstN           int
	BCSubsequentN      int
	// NoSNIShare is the fraction of single-cert non-public connections
	// lacking SNI (86.70%).
	NoSNIShare float64
	// DGA summarizes the detected DGA cluster.
	DGACerts   int
	DGAConns   int64
	DGAClients int
	DGAMinDays int
	DGAMaxDays int
}

// Sec63 quantifies the §6.3 passive-vantage blind spot: TLS 1.3
// connections whose certificates are encrypted ("about a quarter of TLS
// connections" in the paper).
type Sec63 struct {
	TLS13Conns   int64
	VisibleConns int64
}

// TLS13Share returns the invisible fraction of all TLS connections.
func (s Sec63) TLS13Share() float64 {
	total := s.TLS13Conns + s.VisibleConns
	if total == 0 {
		return 0
	}
	return float64(s.TLS13Conns) / float64(total)
}

// Report bundles every reproduced table and figure.
type Report struct {
	Table1  Table1
	Table2  Table2
	Table3  Table3
	Table4  Table4
	Table6  Table6
	Table7  Table7
	Table8  Table8
	Figure1 Figure1
	Figure4 Figure4
	Figure5 GraphSummary
	Figure6 Figure6
	Figure7 GraphSummary
	Figure8 GraphSummary
	Sec42   Sec42
	Sec43   Sec43
	Sec63   Sec63
	// HybridGraph, NonPubGraph and InterceptGraph are the co-occurrence
	// graphs Figures 5, 7 and 8 summarize, kept for drawing them (Graphviz
	// output); InterceptGraph still holds the leaves Figure 8 omits. The
	// JSON export carries only the summaries.
	HybridGraph, NonPubGraph, InterceptGraph *graph.Graph
	// Lint is the corpus-wide lint prevalence summary; nil when the pipeline
	// runs without a linter, leaving all other output unchanged.
	Lint *lint.CorpusSummary
}
