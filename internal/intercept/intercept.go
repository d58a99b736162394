// Package intercept implements the paper's TLS interception identification
// (§3.2.1, Appendix B): connections whose leaf issuer is absent from the
// public databases are cross-referenced against CT logs — when CT records a
// different issuer for the same domain and validity period, the observed
// issuer is flagged as a possible interception middlebox, and a curated
// registry (standing in for the paper's manual web-search investigation)
// assigns it to one of the Table 1 categories.
package intercept

import (
	"fmt"
	"sync"
	"time"

	"certchains/internal/certmodel"
	"certchains/internal/ctlog"
	"certchains/internal/dn"
	"certchains/internal/trustdb"
)

// Category is the Table 1 issuer sector.
type Category string

// The six sectors of Table 1.
const (
	CategorySecurityNetwork   Category = "Security & Network"
	CategoryBusinessCorporate Category = "Business & Corporate"
	CategoryHealthEducation   Category = "Health & Education"
	CategoryGovernment        Category = "Government & Public Service"
	CategoryBankFinance       Category = "Bank & Finance"
	CategoryOther             Category = "Other"
)

// Categories lists all sectors in the paper's table order.
var Categories = []Category{
	CategorySecurityNetwork,
	CategoryBusinessCorporate,
	CategoryHealthEducation,
	CategoryGovernment,
	CategoryBankFinance,
	CategoryOther,
}

// Issuer is one identified interception entity.
type Issuer struct {
	// DN is the issuer distinguished name observed in intercepted chains.
	DN dn.DN
	// Name is a human-readable label (e.g. "Zscaler", "Fortinet").
	Name string
	// Category is the Table 1 sector.
	Category Category

	// key memoizes DN.Normalized(); Registry.Add fills it so hot-path
	// attribution never re-normalizes.
	key string
}

// Key returns the normalized DN key, memoized by Registry.Add.
func (i *Issuer) Key() string {
	if i.key != "" {
		return i.key
	}
	return i.DN.Normalized()
}

// Registry is the curated set of identified interception issuers — the
// outcome of the paper's manual investigation of CT mismatches (80 issuers).
// It is safe for concurrent use: the detection pass registers issuers while
// pipeline workers attribute observations.
type Registry struct {
	mu   sync.RWMutex
	byDN map[string]*Issuer
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byDN: make(map[string]*Issuer)}
}

// Add registers an issuer. Re-adding the same DN overwrites the entry.
func (r *Registry) Add(iss *Issuer) {
	iss.key = iss.DN.Normalized()
	r.mu.Lock()
	r.byDN[iss.key] = iss
	r.mu.Unlock()
}

// Lookup returns the issuer entry for a DN.
func (r *Registry) Lookup(d dn.DN) (*Issuer, bool) {
	return r.LookupKey(d.Normalized())
}

// LookupKey is Lookup for callers that already hold the normalized DN key.
func (r *Registry) LookupKey(key string) (*Issuer, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	i, ok := r.byDN[key]
	return i, ok
}

// Len returns the number of registered issuers.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byDN)
}

// All returns the registered issuers in unspecified order.
func (r *Registry) All() []*Issuer {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Issuer, 0, len(r.byDN))
	for _, i := range r.byDN {
		out = append(out, i)
	}
	return out
}

// Verdict is the outcome of examining one connection.
type Verdict int

const (
	// NotCandidate: the leaf issuer is in the public databases, so the
	// connection is not examined further.
	NotCandidate Verdict = iota
	// NoCTRecord: the domain has no CT-logged certificate overlapping the
	// observed validity window, so no comparison is possible (the paper's
	// acknowledged blind spot, Appendix B).
	NoCTRecord
	// IssuerMatches: CT records the observed issuer for this domain, so
	// the certificate is presumably the server's own.
	IssuerMatches
	// IssuerMismatch: CT records only different issuers — possible
	// interception, queued for manual categorization.
	IssuerMismatch
	// NoSNI: the connection carried no server name, so there is nothing to
	// query CT for.
	NoSNI
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case NotCandidate:
		return "not-candidate"
	case NoCTRecord:
		return "no-ct-record"
	case IssuerMatches:
		return "issuer-matches-ct"
	case IssuerMismatch:
		return "issuer-mismatch"
	case NoSNI:
		return "no-sni"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Detector performs the CT cross-reference. It holds no state of its own:
// Examine is a pure function of its inputs over the immutable trust database
// and CT log, so a single detector may be shared by concurrent callers and
// separately built detectors always agree.
type Detector struct {
	DB *trustdb.DB
	CT *ctlog.Log
}

// NewDetector builds a detector over the trust database and CT log.
func NewDetector(db *trustdb.DB, ct *ctlog.Log) *Detector {
	return &Detector{DB: db, CT: ct}
}

// Examine applies the §3.2.1 procedure to one observation: the delivered
// leaf certificate, the connection SNI, and the observation time.
func (d *Detector) Examine(leaf *certmodel.Meta, sni string, at time.Time) Verdict {
	if d.DB.Classify(leaf) == trustdb.IssuedByPublicDB {
		return NotCandidate
	}
	if sni == "" {
		return NoSNI
	}
	// Compare against issuers CT recorded for this domain during the
	// observed certificate's validity period (checked at midpoint and at
	// the observation instant to tolerate reissuance).
	recorded := d.CT.IssuersFor(sni, at)
	if len(recorded) == 0 {
		mid := leaf.NotBefore.Add(leaf.NotAfter.Sub(leaf.NotBefore) / 2)
		recorded = d.CT.IssuersFor(sni, mid)
	}
	if len(recorded) == 0 {
		return NoCTRecord
	}
	for _, rec := range recorded {
		if dn.Equalish(rec, leaf.Issuer) {
			return IssuerMatches
		}
	}
	return IssuerMismatch
}
