//certchain:hotpath — the observe stage's inner loops run once per observation.

package analysis

import (
	"runtime"
	"sort"

	"certchains/internal/campus"
	"certchains/internal/certmodel"
	"certchains/internal/chain"
	"certchains/internal/ctlog"
	"certchains/internal/graph"
	"certchains/internal/intercept"
	"certchains/internal/lint"
	"certchains/internal/obs"
	"certchains/internal/stats"
	"certchains/internal/trustdb"
)

// Pipeline wires the enrichment components of Figure 2.
//
// Enrichment is sharded: observation batches are dispatched across a pool of
// workers, each accumulating into a private partialReport; the partials are
// then merged deterministically and finalized. Any worker count produces a
// byte-identical report (see partialReport for why), so Workers is purely a
// throughput knob.
type Pipeline struct {
	DB         *trustdb.DB
	CT         *ctlog.Log
	Classifier *chain.Classifier
	Registry   *intercept.Registry
	// Workers is the shard/worker count Run uses; 0 or negative selects
	// runtime.GOMAXPROCS(0).
	Workers int
	// Linter, when set, lints every visible chain during the observation
	// pass and adds a corpus prevalence summary to the report (Report.Lint).
	// Linting shares the per-shard analysis cache and merges like every
	// other accumulator, so worker count still never changes output.
	Linter *lint.Linter
	// Tracer, when set, records stage spans for every run. Shard spans are
	// started in shard order before the workers launch, so the span
	// sequence — though not the durations — is deterministic. A nil tracer
	// costs nothing. A Pipeline holds only shared read-only components, so
	// a shallow copy with its own Tracer keeps concurrent runs' spans apart.
	Tracer *obs.Tracer
}

// NewPipeline builds a pipeline from a generated scenario's components.
func NewPipeline(db *trustdb.DB, ct *ctlog.Log, cl *chain.Classifier, reg *intercept.Registry) *Pipeline {
	return &Pipeline{DB: db, CT: ct, Classifier: cl, Registry: reg}
}

// FromScenario is a convenience constructor.
func FromScenario(s *campus.Scenario) *Pipeline {
	return NewPipeline(s.DB, s.CT, s.Classifier, s.InterceptRegistry)
}

// pathologicalLength is the chain length beyond which Figure 1 excludes a
// chain as a misconfiguration outlier.
const pathologicalLength = 30

// Run executes the full analysis over the observations with p.Workers
// workers.
func (p *Pipeline) Run(observations []*campus.Observation) *Report {
	return p.RunParallel(observations, p.Workers)
}

// RunParallel executes the full analysis with an explicit worker count. The
// slice reaches the worker pool as DefaultBatch-sized sub-slices, so the
// result is byte-identical to RunStream over the same observations in slice
// order, at every worker count.
func (p *Pipeline) RunParallel(observations []*campus.Observation, workers int) *Report {
	return p.finalize(p.AccumulateBatches(sliceBatches(observations), workers))
}

// RunStream executes the full analysis over a producer channel without ever
// materializing the observation slice. The merge is order-independent (and
// outliers are sequence-sorted), so the report is byte-identical to Run over
// the same observations in the same producer order.
func (p *Pipeline) RunStream(observations <-chan *campus.Observation, workers int) *Report {
	return p.finalize(p.AccumulateStream(observations, workers))
}

// finalize is Accumulator.Finalize under the pipeline's tracer. Like merge,
// the finalize stage carries zero records — it reduces state rather than
// consuming input — which keeps its deterministic-subset projection
// width-invariant.
func (p *Pipeline) finalize(acc *Accumulator) *Report {
	fsp := p.Tracer.Start("finalize", "finalize")
	rep := acc.Finalize()
	fsp.End()
	return rep
}

// DefaultBatch is the number of observations per worker-pool handoff.
const DefaultBatch = 64

// normalizeWorkers resolves a worker count: non-positive selects GOMAXPROCS.
func normalizeWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// classifyContains assigns the Appendix F.2 misconfiguration pattern of a
// contains-path hybrid chain.
func (p *Pipeline) classifyContains(bd *ContainsBreakdown, a *chain.Analysis) {
	switch {
	case containsFakeLE(a.Chain):
		bd.FakeLE++
	case leafFirst(a):
		bd.LeafFirst++
	case p.appendedTrustAnchor(a):
		bd.ExtraRoots++
	case appendedSelfSigned(a):
		bd.SelfSignedAppended++
	default:
		bd.Other++
	}
}

// leafFirst reports whether unnecessary certificates precede the complete
// matched path (the chain begins with an unrelated leaf).
func leafFirst(a *chain.Analysis) bool {
	if a.Complete == nil {
		return false
	}
	for _, i := range a.Unnecessary {
		if i < a.Complete.Start {
			return true
		}
	}
	return false
}

// appendedTrustAnchor reports whether an unnecessary certificate after the
// complete path is a stored public root (the multiple-roots-appended
// pattern).
func (p *Pipeline) appendedTrustAnchor(a *chain.Analysis) bool {
	if a.Complete == nil {
		return false
	}
	for _, i := range a.Unnecessary {
		if i > a.Complete.End && a.Chain[i].SelfSigned() && p.DB.IsTrustAnchorKey(a.Chain[i].SubjectKey()) {
			return true
		}
	}
	return false
}

// appendedSelfSigned reports whether an unnecessary self-signed certificate
// follows the complete path (HP "tester", Athenz).
func appendedSelfSigned(a *chain.Analysis) bool {
	if a.Complete == nil {
		return false
	}
	for _, i := range a.Unnecessary {
		if i > a.Complete.End && a.Chain[i].SelfSigned() {
			return true
		}
	}
	return false
}

// missingIssuer reports the §4.2 sub-finding: the chain's first certificate
// is public-DB issued, yet nothing in the chain names its issuer.
func missingIssuer(a *chain.Analysis) bool {
	if len(a.Chain) < 2 || a.Classes[0] != trustdb.IssuedByPublicDB {
		return false
	}
	issuer := a.Chain[0].Issuer
	issuerKey := a.Chain[0].IssuerKey()
	for _, m := range a.Chain[1:] {
		if len(m.Subject) == len(issuer) && m.SubjectKey() == issuerKey {
			return false
		}
	}
	return true
}

func containsFakeLE(ch certmodel.Chain) bool {
	for _, m := range ch {
		if m.Subject.CommonName() == "Fake LE Intermediate X1" {
			return true
		}
	}
	return false
}

func (p *Pipeline) buildTable1(pr *partialReport) Table1 {
	var total int64
	for _, c := range pr.SectorConns {
		total += c
	}
	t := Table1{DetectedIssuers: len(pr.Detected)}
	for _, cat := range intercept.Categories {
		issuers := 0
		// Prefer the registry's full entity count per sector: entities
		// with no observed traffic still exist.
		for _, iss := range p.Registry.All() {
			if iss.Category == cat {
				issuers++
			}
		}
		row := InterceptionSector{
			Category:  cat,
			Issuers:   issuers,
			ConnShare: stats.Ratio(pr.SectorConns[cat], total),
			ClientIPs: len(pr.SectorIPs[cat]),
		}
		t.Sectors = append(t.Sectors, row)
		t.TotalIssuers += issuers
	}
	return t
}

func buildTable4(portHist map[string]map[int]int64) Table4 {
	shares := func(h map[int]int64) []PortShare {
		var total int64
		for _, c := range h {
			total += c
		}
		out := make([]PortShare, 0, len(h))
		for port, c := range h {
			out = append(out, PortShare{Port: port, Share: stats.Ratio(c, total)})
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].Share != out[j].Share {
				return out[i].Share > out[j].Share
			}
			return out[i].Port < out[j].Port
		})
		return out
	}
	return Table4{
		Hybrid:       shares(portHist["hybrid"]),
		NonPubSingle: shares(portHist["nonpub-single"]),
		NonPubMulti:  shares(portHist["nonpub-multi"]),
		Interception: shares(portHist["interception"]),
	}
}

// buildFigure4 renders the per-position class/segment matrix for the
// contains-path hybrid chains.
func (p *Pipeline) buildFigure4(analyses map[string]*chain.Analysis) Figure4 {
	var keys []string
	for k, a := range analyses {
		if a.Category == chain.Hybrid && chain.ClassifyHybrid(a) == chain.HybridContainsComplete {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var fig Figure4
	for _, k := range keys {
		a := analyses[k]
		row := make([]PositionCell, len(a.Chain))
		for i := range a.Chain {
			cell := PositionCell{Public: a.Classes[i] == trustdb.IssuedByPublicDB, Segment: "single"}
			for _, run := range a.Runs {
				if i >= run.Start && i <= run.End {
					switch {
					case a.Complete != nil && run.Start == a.Complete.Start && run.End == a.Complete.End:
						cell.Segment = "complete"
					case run.Len() > 1:
						cell.Segment = "partial"
					}
					break
				}
			}
			row[i] = cell
		}
		fig.Chains = append(fig.Chains, row)
	}
	return fig
}

func summarizeGraph(g *graph.Graph) GraphSummary {
	pub, npub := g.ClassCounts()
	l, i, rt := g.RoleCounts()
	comps := g.Components()
	largest := 0
	if len(comps) > 0 {
		largest = len(comps[0])
	}
	return GraphSummary{
		Nodes:                g.NodeCount(),
		Edges:                g.EdgeCount(),
		PublicNodes:          pub,
		NonPublicNodes:       npub,
		Leaves:               l,
		Inters:               i,
		Roots:                rt,
		ComplexIntermediates: len(g.ComplexIntermediates(3)),
		Components:           len(comps),
		LargestComponent:     largest,
	}
}
