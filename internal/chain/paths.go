package chain

import (
	"fmt"
	"time"

	"certchains/internal/certmodel"
	"certchains/internal/trustdb"
)

// LinkState is the verdict for one adjacent issuer–subject pair.
type LinkState int

const (
	// LinkMatch means issuer(chain[i]) equals subject(chain[i+1]).
	LinkMatch LinkState = iota
	// LinkMismatch means the pair does not match.
	LinkMismatch
	// LinkCrossSign means the pair mismatches textually but is exempted by
	// a registered cross-signing relationship and is treated as matched.
	LinkCrossSign
)

// String implements fmt.Stringer.
func (l LinkState) String() string {
	switch l {
	case LinkMatch:
		return "match"
	case LinkMismatch:
		return "mismatch"
	case LinkCrossSign:
		return "cross-sign"
	default:
		return fmt.Sprintf("LinkState(%d)", int(l))
	}
}

// Matched reports whether the link counts as matched for path construction.
func (l LinkState) Matched() bool { return l != LinkMismatch }

// Run is a maximal matched run of certificates within a delivered chain:
// chain[Start..End] inclusive, where every internal link is matched.
type Run struct {
	Start, End int
	// HasLeaf reports whether chain[Start] is a leaf certificate per
	// isLeaf, making the run a candidate complete matched path.
	HasLeaf bool
}

// Len returns the number of certificates in the run.
func (r Run) Len() int { return r.End - r.Start + 1 }

// Verdict summarizes a chain's path structure.
type Verdict int

const (
	// VerdictSingleCert marks one-certificate chains, analyzed separately
	// in §4.3.
	VerdictSingleCert Verdict = iota
	// VerdictCompletePath means the entire chain is one matched path (for
	// hybrid analysis: starting at a leaf certificate).
	VerdictCompletePath
	// VerdictContainsPath means a complete matched path exists inside the
	// chain alongside unnecessary certificates.
	VerdictContainsPath
	// VerdictNoPath means no complete matched path exists in the chain.
	VerdictNoPath
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case VerdictSingleCert:
		return "single-certificate"
	case VerdictCompletePath:
		return "complete-matched-path"
	case VerdictContainsPath:
		return "contains-matched-path"
	case VerdictNoPath:
		return "no-matched-path"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Analysis is the full structural result for one delivered chain.
type Analysis struct {
	Chain certmodel.Chain
	// Category is the §3.2.2 chain category.
	Category Category
	// Classes holds the per-certificate §3.2.1 classification.
	Classes []trustdb.Class
	// Links holds the state of each adjacent issuer–subject pair;
	// len(Links) == len(Chain)-1.
	Links []LinkState
	// Runs are the maximal matched runs in delivery order.
	Runs []Run
	// MismatchRatio is mismatched pairs over total pairs (Figure 3); zero
	// for single-certificate chains.
	MismatchRatio float64
	// Complete is the complete matched path chosen for this chain (the
	// longest leaf-headed run, ties broken towards delivery order), or nil.
	Complete *Run
	// Unnecessary lists certificate indices outside the complete path —
	// the paper's unnecessary certificates. Empty when Complete is nil.
	Unnecessary []int
	// Verdict is the overall structure verdict (leaf-aware, used for
	// hybrid chains).
	Verdict Verdict
	// MatchedVerdict is the leaf-agnostic variant used for
	// non-public-DB-only and interception chains (§4.3), where leaf
	// detection is unreliable because basicConstraints is widely omitted.
	MatchedVerdict Verdict
}

// RequireLeaf controls whether complete paths must start at a leaf
// certificate. Hybrid analysis requires it (§4.2); non-public-DB-only and
// interception analysis does not (§4.3).
type RequireLeaf bool

// Options for the analyzer's leaf handling.
const (
	WithLeafCheck    RequireLeaf = true
	WithoutLeafCheck RequireLeaf = false
)

// chainKeys holds the per-chain normalized DN keys computed once per
// Analyze: link checking and leaf detection over long chains would
// otherwise re-normalize the same DNs quadratically.
type chainKeys struct {
	issuer  []string
	subject []string
}

func keysOf(ch certmodel.Chain) *chainKeys {
	// One backing array for both key slices; delivered chains are short, so
	// occurrence counting scans the issuer slice instead of building a map.
	backing := make([]string, 2*len(ch))
	k := &chainKeys{
		issuer:  backing[:len(ch):len(ch)],
		subject: backing[len(ch):],
	}
	for i, m := range ch {
		k.issuer[i] = m.IssuerKey()
		k.subject[i] = m.SubjectKey()
	}
	return k
}

// issuedCount returns how many chain members name key as their issuer.
func (k *chainKeys) issuedCount(key string) int {
	n := 0
	for _, ik := range k.issuer {
		if ik == key {
			n++
		}
	}
	return n
}

// isLeaf reports whether chain[i] looks like an end-entity certificate:
// basicConstraints CA=FALSE, or — when the extension is absent — not acting
// as an issuer of any other certificate in this chain and not self-signed.
// This mirrors the paper's pragmatic leaf identification under widespread
// basicConstraints omission (§4.3).
func (k *chainKeys) isLeaf(ch certmodel.Chain, i int) bool {
	m := ch[i]
	switch m.BC {
	case certmodel.BCFalse:
		return true
	case certmodel.BCTrue:
		return false
	}
	// Extension absent: structural heuristic. A self-signed certificate is
	// never a leaf; otherwise the certificate is a leaf when nothing else
	// in the chain names it as issuer. Since issuer != subject here, any
	// occurrence of our subject in the issuer multiset comes from another
	// certificate.
	if k.issuer[i] == k.subject[i] {
		return false
	}
	return k.issuedCount(k.subject[i]) == 0
}

// IsLeafPosition reports whether chain[i] occupies the delivered leaf
// position. TLS servers send the end-entity certificate first (RFC 8446
// §4.4.2), so the leaf position is index 0 — for every chain length —
// unless the first certificate demonstrably acts as an issuer of another
// delivered member (a root-first delivery), in which case no position is
// treated as the leaf. Unlike isLeaf, the predicate deliberately ignores
// basicConstraints: a first-position certificate asserting CA=TRUE is still
// in the leaf position (that contradiction is exactly what lints flag).
func IsLeafPosition(ch certmodel.Chain, i int) bool {
	if i != 0 || len(ch) == 0 {
		return false
	}
	if len(ch) == 1 {
		return true
	}
	// The first certificate issues another member when some later member
	// names it as issuer; its own issuer slot never counts (a self-signed
	// first certificate issues itself only).
	subject := ch[0].SubjectKey()
	for _, m := range ch[1:] {
		if m.IssuerKey() == subject {
			return false
		}
	}
	return true
}

// Analyze runs the full structural analysis for one delivered chain.
func (c *Classifier) Analyze(ch certmodel.Chain) *Analysis {
	a := &Analysis{
		Chain:    ch,
		Category: c.Categorize(ch),
		Classes:  make([]trustdb.Class, len(ch)),
	}
	for i, m := range ch {
		a.Classes[i] = c.DB.Classify(m)
	}
	keys := keysOf(ch)
	if len(ch) <= 1 {
		a.Verdict = VerdictSingleCert
		a.MatchedVerdict = VerdictSingleCert
		if len(ch) == 1 {
			a.Runs = []Run{{Start: 0, End: 0, HasLeaf: keys.isLeaf(ch, 0)}}
		}
		return a
	}

	// Link states.
	a.Links = make([]LinkState, len(ch)-1)
	mismatches := 0
	for i := 0; i < len(ch)-1; i++ {
		switch {
		case keys.issuer[i] == keys.subject[i+1]:
			a.Links[i] = LinkMatch
		case c.CrossSigns.ExemptKeys(keys.issuer[i], keys.subject[i+1]):
			a.Links[i] = LinkCrossSign
		default:
			a.Links[i] = LinkMismatch
			mismatches++
		}
	}
	a.MismatchRatio = float64(mismatches) / float64(len(a.Links))

	// Maximal matched runs.
	start := 0
	for i := 0; i <= len(a.Links); i++ {
		if i == len(a.Links) || !a.Links[i].Matched() {
			a.Runs = append(a.Runs, Run{Start: start, End: i, HasLeaf: keys.isLeaf(ch, start)})
			start = i + 1
		}
	}

	leafRun := bestRun(a, WithLeafCheck)
	matchedRun := bestRun(a, WithoutLeafCheck)
	a.Verdict = verdictFor(leafRun, len(ch))
	a.MatchedVerdict = verdictFor(matchedRun, len(ch))
	// Prefer the leaf-headed path for unnecessary-certificate accounting;
	// fall back to the leaf-agnostic best run (non-public chains, §4.3).
	a.Complete = leafRun
	if a.Complete == nil {
		a.Complete = matchedRun
	}
	if a.Complete != nil {
		for i := range ch {
			if i < a.Complete.Start || i > a.Complete.End {
				a.Unnecessary = append(a.Unnecessary, i)
			}
		}
	}
	return a
}

// bestRun selects the longest qualifying run (leaf-headed when required),
// preferring earlier runs on ties: servers deliver the intended path first.
func bestRun(a *Analysis, requireLeaf RequireLeaf) *Run {
	var best *Run
	for i := range a.Runs {
		r := &a.Runs[i]
		if r.Len() < 2 {
			continue
		}
		if bool(requireLeaf) && !r.HasLeaf {
			continue
		}
		if best == nil || r.Len() > best.Len() {
			best = r
		}
	}
	return best
}

func verdictFor(best *Run, chainLen int) Verdict {
	if best == nil {
		return VerdictNoPath
	}
	if best.Len() == chainLen {
		return VerdictCompletePath
	}
	return VerdictContainsPath
}

// AnchoredToPublicRoot reports whether the chain's complete matched path
// terminates at a public trust anchor: its topmost certificate either is a
// stored root (by subject) or names a stored root as issuer (the common
// root-omitted delivery, §4.1).
func (a *Analysis) AnchoredToPublicRoot(db *trustdb.DB) bool {
	if a.Complete == nil && len(a.Chain) != 1 {
		return false
	}
	top := a.Chain[len(a.Chain)-1]
	if a.Complete != nil {
		top = a.Chain[a.Complete.End]
	}
	if top.SelfSigned() {
		return db.IsTrustAnchorSubject(top.Subject)
	}
	return db.IsTrustAnchorSubject(top.Issuer) || db.IsTrustAnchorSubject(top.Subject)
}

// LeafOfComplete returns the leaf certificate of the complete matched path,
// or nil when the chain has none.
func (a *Analysis) LeafOfComplete() *certmodel.Meta {
	if a.Complete == nil {
		return nil
	}
	return a.Chain[a.Complete.Start]
}

// HasExpiredLeaf reports whether the complete path's leaf is expired at t —
// the §4.2 observation of complete-path chains serving leaves expired over
// five years.
func (a *Analysis) HasExpiredLeaf(t time.Time) bool {
	leaf := a.LeafOfComplete()
	if leaf == nil {
		return false
	}
	return leaf.ExpiredAt(t)
}
