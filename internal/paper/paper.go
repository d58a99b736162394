// Package paper encodes the published values of every table and figure in
// "Inside Certificate Chains Beyond Public Issuers" (IMC 2025) and checks a
// measured analysis report against them.
//
// Reproduction targets come in two kinds:
//
//   - structural absolutes (the 321 hybrid chains and their taxonomy, the 80
//     interception issuers, the 26 CT-logged anchored leaves, ...), which
//     must match exactly at any scale;
//   - shapes (proportions, orderings, rate bands), which must fall inside a
//     tolerance band around the paper's reported value.
//
// The comparator returns one Check per target so tooling can render the
// paper-vs-measured table (EXPERIMENTS.md) mechanically.
package paper

import (
	"fmt"
	"math"

	"certchains/internal/analysis"
	"certchains/internal/chain"
	"certchains/internal/intercept"
	"certchains/internal/stats"
)

// Check is one verified reproduction target.
type Check struct {
	// ID names the artifact ("Table 3", "Fig 1", "§4.3", ...).
	ID string
	// Target describes what is compared.
	Target string
	// Paper is the published value; Measured this run's value.
	Paper, Measured float64
	// Exact marks structural absolutes (tolerance zero).
	Exact bool
	// Tolerance is the allowed absolute deviation for shape targets.
	Tolerance float64
	// Pass reports whether the measured value is inside the band.
	Pass bool
}

func (c Check) String() string {
	status := "PASS"
	if !c.Pass {
		status = "FAIL"
	}
	kind := "shape"
	if c.Exact {
		kind = "exact"
	}
	return fmt.Sprintf("[%s] %-9s %-52s paper=%.4f measured=%.4f (%s)",
		status, c.ID, c.Target, c.Paper, c.Measured, kind)
}

// Published constants from the paper text.
const (
	HybridChains          = 321
	HybridCompleteNonPub  = 26
	HybridCompletePubPrv  = 10
	HybridContains        = 70
	HybridNoPath          = 215
	Table6Government      = 16
	Table6Corporate       = 10
	Table7SelfSignedMis   = 108
	Table7SelfSignedValid = 13
	Table7AllMismatch     = 61
	Table7Partial         = 27
	Table7RootAppended    = 5
	Table7RootMismatch    = 1
	InterceptionIssuers   = 80
	FakeLEChains          = 14
	MultiChainServers     = 19
	ExpiredLeafChains     = 3
	MissingIssuerChains   = 56
	PathologicalChains    = 3

	EstablishComplete = 0.9769
	EstablishContains = 0.9204
	EstablishNoPath   = 0.5742

	NonPubSingleShare     = 0.7810
	NonPubSelfSignedShare = 0.9419
	NonPubNoSNIShare      = 0.8670
	NonPubMatchedShare    = 0.9976
	InterceptMatchedShare = 0.9894
	InterceptSingleShare  = 0.1324
	InterceptSingleSelf   = 0.9343
	BCAbsentFirst         = 0.5531
	BCAbsentSubsequent    = 0.7832
	Fig6ShareAtOrAbove05  = 0.5674
	SecurityConnShare     = 0.9474

	PublicLen2Share  = 0.60 // ">60% of public-DB-only chains" at length 2
	InterceptLen3Min = 0.80 // ">80% consistently include 3 certificates"
)

// Verify compares a report against the paper's targets.
func Verify(r *analysis.Report) []Check {
	var out []Check
	exact := func(id, target string, paperVal, measured int) {
		out = append(out, Check{
			ID: id, Target: target,
			Paper: float64(paperVal), Measured: float64(measured),
			Exact: true, Pass: paperVal == measured,
		})
	}
	shape := func(id, target string, paperVal, measured, tol float64) {
		out = append(out, Check{
			ID: id, Target: target,
			Paper: paperVal, Measured: measured,
			Tolerance: tol,
			Pass:      measured >= paperVal-tol && measured <= paperVal+tol,
		})
	}
	// shapeN widens the band for small samples: a share estimated from n
	// observations gets a two-sigma binomial tolerance floor.
	shapeN := func(id, target string, paperVal, measured, tol float64, n int) {
		if n > 0 {
			if sigma2 := 2 * math.Sqrt(paperVal*(1-paperVal)/float64(n)); sigma2 > tol {
				tol = sigma2
			}
		}
		shape(id, target, paperVal, measured, tol)
	}
	atLeast := func(id, target string, minVal, measured float64) {
		out = append(out, Check{
			ID: id, Target: target,
			Paper: minVal, Measured: measured,
			Tolerance: 1 - minVal,
			Pass:      measured >= minVal,
		})
	}

	// Table 1.
	total := 0
	for _, s := range r.Table1.Sectors {
		total += s.Issuers
		if s.Category == intercept.CategorySecurityNetwork {
			exact("Table 1", "Security & Network issuers", 31, s.Issuers)
			shape("Table 1", "Security & Network connection share", SecurityConnShare, s.ConnShare, 0.06)
		}
	}
	exact("Table 1", "interception issuers total", InterceptionIssuers, total)

	// Table 2 (shape: non-public chain share). The hybrid population is a
	// structural absolute (always 321), so at small scales it would skew
	// the denominator; the share is computed over the scaled categories.
	np := r.Table2.PerCategory[chain.NonPublicDBOnly]
	if np != nil && r.Table2.TotalChains > 0 {
		scaledTotal := r.Table2.TotalChains
		if hy := r.Table2.PerCategory[chain.Hybrid]; hy != nil {
			scaledTotal -= hy.Chains
		}
		if scaledTotal > 0 {
			shape("Table 2", "non-public-DB-only chain share (scaled cats)", 0.1624,
				float64(np.Chains)/float64(scaledTotal), 0.05)
		}
	}
	hy := r.Table2.PerCategory[chain.Hybrid]
	if hy != nil {
		exact("Table 2", "hybrid chains", HybridChains, hy.Chains)
	}

	// Table 3.
	exact("Table 3", "complete non-pub-to-pub", HybridCompleteNonPub, r.Table3.Counts[chain.HybridCompleteNonPubToPub])
	exact("Table 3", "complete pub-to-prv", HybridCompletePubPrv, r.Table3.Counts[chain.HybridCompletePubToPrv])
	exact("Table 3", "contains complete path", HybridContains, r.Table3.Counts[chain.HybridContainsComplete])
	exact("Table 3", "no complete path", HybridNoPath, r.Table3.Counts[chain.HybridNoComplete])
	shape("§4.2", "establishment rate, complete", EstablishComplete, r.Table3.EstablishRate[chain.VerdictCompletePath], 0.02)
	shape("§4.2", "establishment rate, contains", EstablishContains, r.Table3.EstablishRate[chain.VerdictContainsPath], 0.02)
	shape("§4.2", "establishment rate, no path", EstablishNoPath, r.Table3.EstablishRate[chain.VerdictNoPath], 0.02)

	// Table 6.
	exact("Table 6", "government chains", Table6Government, r.Table6.Government)
	exact("Table 6", "corporate chains", Table6Corporate, r.Table6.Corporate)

	// Table 7.
	exact("Table 7", "self-signed leaf + mismatches", Table7SelfSignedMis, r.Table7.Counts[chain.NoPathSelfSignedLeafMismatch])
	exact("Table 7", "self-signed leaf + valid subchain", Table7SelfSignedValid, r.Table7.Counts[chain.NoPathSelfSignedLeafValidSub])
	exact("Table 7", "all pairs mismatched", Table7AllMismatch, r.Table7.Counts[chain.NoPathAllMismatched])
	exact("Table 7", "partial mismatches", Table7Partial, r.Table7.Counts[chain.NoPathPartial])
	exact("Table 7", "root appended", Table7RootAppended, r.Table7.Counts[chain.NoPathPrivateRootAppended])
	exact("Table 7", "root + mismatches", Table7RootMismatch, r.Table7.Counts[chain.NoPathPrivateRootMismatch])

	// Table 8.
	shape("Table 8", "non-public matched-path share", NonPubMatchedShare, r.Table8.NonPub.MatchedShare(), 0.01)
	shape("Table 8", "interception matched-path share", InterceptMatchedShare, r.Table8.Interception.MatchedShare(), 0.015)

	// Figure 1.
	if cdf := r.Figure1.CDF[chain.PublicDBOnly]; cdf != nil {
		atLeast("Fig 1", "public-DB-only length-2 share > 60%", PublicLen2Share, cdf.Share(2))
	}
	if cdf := r.Figure1.CDF[chain.NonPublicDBOnly]; cdf != nil {
		shape("Fig 1", "non-public length-1 share", NonPubSingleShare, cdf.Share(1), 0.03)
	}
	if cdf := r.Figure1.CDF[chain.Interception]; cdf != nil {
		atLeast("Fig 1", "interception length-3 share > 80%", InterceptLen3Min, cdf.Share(3))
	}
	exact("Fig 1", "pathological chains excluded", PathologicalChains, len(r.Figure1.Excluded))

	// Figure 4 / Figure 6.
	exact("Fig 4", "contains-path chains rendered", HybridContains, len(r.Figure4.Chains))
	shape("Fig 6", "mismatch ratio share >= 0.5", Fig6ShareAtOrAbove05, r.Figure6.ShareAtOrAbove05, 0.03)

	// §4.2 extras.
	exact("§4.2", "anchored leaves", HybridCompleteNonPub, r.Sec42.AnchoredLeaves)
	exact("§4.2", "anchored leaves CT-logged", r.Sec42.AnchoredLeaves, r.Sec42.CTLoggedAnchoredLeaves)
	exact("§4.2", "expired-leaf chains", ExpiredLeafChains, r.Sec42.ExpiredLeafChains)
	exact("§4.2", "Fake LE chains", FakeLEChains, r.Sec42.FakeLEChains)
	exact("§4.2", "multi-chain servers", MultiChainServers, r.Sec42.MultiChainServers)
	exact("§4.2", "missing-issuer chains", MissingIssuerChains, r.Sec42.MissingIssuerChains)
	// §6.1: store-completing clients validate what presented-chain
	// validators reject.
	exact("§6.1", "missing-issuer chains store-completable", r.Sec42.MissingIssuerChains,
		r.Sec42.MissingIssuerStoreCompletable)

	// §4.3.
	shapeN("§4.3", "self-signed share of singles", NonPubSelfSignedShare,
		r.Sec43.SingleStats.SelfSignedShare(), 0.03, r.Sec43.SingleStats.Total)
	shapeN("§4.3", "basicConstraints absent, first", BCAbsentFirst, r.Sec43.BCAbsentFirst, 0.05, r.Sec43.BCFirstN)
	shapeN("§4.3", "basicConstraints absent, subsequent", BCAbsentSubsequent, r.Sec43.BCAbsentSubsequent, 0.07, r.Sec43.BCSubsequentN)
	shape("§4.3", "no-SNI share of single-cert conns", NonPubNoSNIShare, r.Sec43.NoSNIShare, 0.06)
	shapeN("§4.3", "interception single self-signed share", InterceptSingleSelf,
		r.Sec43.InterceptSingle.SelfSignedShare(), 0.05, r.Sec43.InterceptSingle.Total)

	// §6.3: "about a quarter of TLS connections" are TLS 1.3.
	if r.Sec63.TLS13Conns > 0 {
		shape("§6.3", "TLS 1.3 (invisible) connection share", 0.25, r.Sec63.TLS13Share(), 0.03)
	}
	return out
}

// VerifyRevisit checks the §5 targets.
func VerifyRevisit(rr *analysis.RevisitReport) []Check {
	var out []Check
	exact := func(target string, paperVal, measured int) {
		out = append(out, Check{ID: "§5", Target: target,
			Paper: float64(paperVal), Measured: float64(measured),
			Exact: true, Pass: paperVal == measured})
	}
	shape := func(target string, paperVal, measured, tol float64, n int) {
		if n > 0 {
			if sigma2 := 2.5 * math.Sqrt(paperVal*(1-paperVal)/float64(n)); sigma2 > tol {
				tol = sigma2
			}
		}
		out = append(out, Check{ID: "§5", Target: target,
			Paper: paperVal, Measured: measured, Tolerance: tol,
			Pass: measured >= paperVal-tol && measured <= paperVal+tol})
	}
	exact("hybrid targets", HybridChains, rr.HybridTargets)
	exact("hybrid reachable", 270, rr.HybridReachable)
	exact("now public-DB-only", 231, rr.HybridToPublic)
	exact("now non-public", 4, rr.HybridToNonPub)
	exact("still hybrid", 35, rr.HybridStillHybrid)
	exact("still hybrid: clean complete", 9, rr.HybridStillClean)
	exact("still hybrid: complete + unnecessary", 3, rr.HybridStillExtra)
	exact("still hybrid: no path", 23, rr.HybridStillNoPath)
	if rr.NonPubScanned > 0 {
		shape("non-public now multi-cert share", 0.7940,
			stats.Ratio(int64(rr.NonPubNowMulti), int64(rr.NonPubScanned)), 0.05, rr.NonPubScanned)
	}
	if rr.NonPubNowMulti > 0 {
		shape("previously multi share", 0.3900,
			stats.Ratio(int64(rr.NonPubPrevMulti), int64(rr.NonPubNowMulti)), 0.06, rr.NonPubNowMulti)
		shape("previously single self-signed share", 0.5344,
			stats.Ratio(int64(rr.NonPubPrevSingleSelf), int64(rr.NonPubNowMulti)), 0.06, rr.NonPubNowMulti)
		shape("new complete-path share", 0.9761,
			stats.Ratio(int64(rr.NonPubNewComplete), int64(rr.NonPubNowMulti)), 0.03, rr.NonPubNowMulti)
	}
	return out
}
