package lint

import (
	"strings"
	"time"

	"certchains/internal/certmodel"
	"certchains/internal/chain"
)

// Profile tag sets for the builtin checks. Paper checks reproduce a finding
// the paper reports directly; strict adds the wider hygiene set.
var (
	paperProfiles  = []string{ProfilePaper, ProfileStrict}
	strictProfiles = []string{ProfileStrict}
)

// leafPositionOnly gates certificate checks to the delivered leaf position.
func leafPositionOnly(ctx *Context, pos int) bool {
	return ctx.LeafPosition(pos)
}

// date prints a time as its day. A finding takes it by pointer, which
// allocates nothing, so the corpus count path never formats it.
type date time.Time

func (d *date) String() string { return (*time.Time)(d).Format("2006-01-02") }

// DefaultRegistry returns a fresh registry holding every builtin check.
func DefaultRegistry() *Registry {
	r := NewRegistry()
	registerPaperChecks(r)
	registerStrictChecks(r)
	return r
}

// registerPaperChecks adds the checks that correspond one-to-one to findings
// the paper reports.
func registerPaperChecks(r *Registry) {
	r.MustRegister(&Check{
		ID: "basic-constraints-absent", Severity: Warn, Scope: ScopeCert,
		Description: "basicConstraints extension missing entirely",
		Citation:    "§4.3 (absent on 55–78% of non-public certificates)",
		Profiles:    paperProfiles,
		CertFn: func(ctx *Context, co *Collector, m *certmodel.Meta, pos int) {
			if m.BC == certmodel.BCAbsent {
				co.Add(pos, "basicConstraints extension missing; RFC 5280 requires an explicit CA boolean")
			}
		},
	})
	r.MustRegister(&Check{
		ID: "expired", Severity: Warn, Scope: ScopeCert,
		Description: "certificate past its NotAfter date",
		Citation:    "§4.2 (leaves served >5 years past expiry)",
		Profiles:    paperProfiles,
		CertFn: func(ctx *Context, co *Collector, m *certmodel.Meta, pos int) {
			if !m.ExpiredAt(ctx.Cfg.Now) {
				return
			}
			sev := Warn
			if ctx.LeafPosition(pos) {
				sev = Error
			}
			co.AddSeverity(sev, pos, "certificate expired %s", (*date)(&m.NotAfter))
		},
	})
	r.MustRegister(&Check{
		ID: "not-yet-valid", Severity: Error, Scope: ScopeCert,
		Description: "certificate before its NotBefore date",
		Citation:    "§4.2 (validity hygiene)",
		Profiles:    paperProfiles,
		CertFn: func(ctx *Context, co *Collector, m *certmodel.Meta, pos int) {
			if ctx.Cfg.Now.Before(m.NotBefore) {
				co.Add(pos, "certificate not valid before %s", m.NotBefore.Format("2006-01-02"))
			}
		},
	})
	r.MustRegister(&Check{
		ID: "missing-san", Severity: Warn, Scope: ScopeCert,
		Description: "leaf without subjectAltName",
		Citation:    "Appendix B (modern clients ignore the CN)",
		Profiles:    paperProfiles,
		Applies:     leafPositionOnly,
		CertFn: func(ctx *Context, co *Collector, m *certmodel.Meta, pos int) {
			if len(m.SAN) == 0 && !m.SelfSigned() {
				co.Add(pos, "leaf has no subjectAltName; modern clients ignore the CN")
			}
		},
	})
	r.MustRegister(&Check{
		ID: "validity-too-long", Severity: Warn, Scope: ScopeCert,
		Description: "leaf validity above the ecosystem ceiling",
		Citation:    "§4.3 (multi-decade private validity periods)",
		Profiles:    paperProfiles,
		Applies:     leafPositionOnly,
		CertFn: func(ctx *Context, co *Collector, m *certmodel.Meta, pos int) {
			if v := m.NotAfter.Sub(m.NotBefore); v > ctx.Cfg.MaxLeafValidity {
				co.Add(pos, "leaf valid %d days, over the %d-day ceiling",
					int(v.Hours()/24), int(ctx.Cfg.MaxLeafValidity.Hours()/24))
			}
		},
	})
	r.MustRegister(&Check{
		ID: "ca-leaf", Severity: Error, Scope: ScopeCert,
		Description: "leaf-position certificate asserting CA=TRUE",
		Citation:    "§4.3 (basicConstraints misuse)",
		Profiles:    paperProfiles,
		Applies:     leafPositionOnly,
		CertFn: func(ctx *Context, co *Collector, m *certmodel.Meta, pos int) {
			if m.BC == certmodel.BCTrue {
				co.Add(pos, "leaf-position certificate asserts CA=TRUE")
			}
		},
	})
	r.MustRegister(&Check{
		ID: "localhost-placeholder", Severity: Error, Scope: ScopeCert,
		Description: "default localhost placeholder subject in production",
		Citation:    "Appendix F.3 (the 100 localhost chains)",
		Profiles:    paperProfiles,
		CertFn: func(ctx *Context, co *Collector, m *certmodel.Meta, pos int) {
			if strings.EqualFold(m.Subject.CommonName(), "localhost") {
				co.Add(pos, "default localhost placeholder subject served in production")
			}
		},
	})
	r.MustRegister(&Check{
		ID: "staging-placeholder", Severity: Error, Scope: ScopeCert,
		Description: "CA staging-environment certificate in production",
		Citation:    "§4.2 (the 14 Fake LE chains)",
		Profiles:    paperProfiles,
		CertFn: func(ctx *Context, co *Collector, m *certmodel.Meta, pos int) {
			if isStagingPlaceholder(m) {
				co.Add(pos, "CA staging-environment certificate (%q) deployed in production", m.Subject.CommonName())
			}
		},
	})
	r.MustRegister(&Check{
		ID: "no-trust-path", Severity: Error, Scope: ScopeChain,
		Description: "no complete matched path in the delivery",
		Citation:    "§4.2/Table 3 (establishment drops to ≈57%)",
		Profiles:    paperProfiles,
		ChainFn: func(ctx *Context, co *Collector) {
			if ctx.Analysis.Verdict == chain.VerdictNoPath {
				co.Add(-1, "no complete matched path; clients validating the presented chain will fail (establishment drops to ≈57%%)")
			}
		},
	})
	r.MustRegister(&Check{
		ID: "unnecessary-certificates", Severity: Warn, Scope: ScopeChain,
		Description: "certificates outside the complete matched path",
		Citation:    "§4.2 (the central unnecessary-certificate finding)",
		Profiles:    paperProfiles,
		ChainFn: func(ctx *Context, co *Collector) {
			if ctx.Analysis.Verdict == chain.VerdictContainsPath {
				co.Add(-1, "%d unnecessary certificate(s); strict validators may reject and every handshake carries dead bytes",
					len(ctx.Analysis.Unnecessary))
			}
		},
	})
	r.MustRegister(&Check{
		ID: "root-included", Severity: Info, Scope: ScopeChain,
		Description: "self-signed root included in the delivery",
		Citation:    "Figure 1/§4.1 (root omission is the norm)",
		Profiles:    paperProfiles,
		ChainFn: func(ctx *Context, co *Collector) {
			a := ctx.Analysis
			if a.Complete != nil && a.Complete.Len() > 1 {
				top := ctx.Chain[a.Complete.End]
				if top.SelfSigned() {
					co.Add(-1, "self-signed root %q included in delivery; clients already hold their anchors", top.Subject.CommonName())
				}
			}
		},
	})
	r.MustRegister(&Check{
		ID: "cross-signed-link", Severity: Info, Scope: ScopeChain,
		Description: "link matched through a cross-signing exemption",
		Citation:    "Appendix D.1 (cross-signing relationships)",
		Profiles:    paperProfiles,
		ChainFn: func(ctx *Context, co *Collector) {
			for i, link := range ctx.Analysis.Links {
				if link == chain.LinkCrossSign {
					co.Add(-1, "pair %d chains through a cross-signing relationship; verify both paths stay valid", i)
				}
			}
		},
	})
}

// registerStrictChecks adds the wider deployment-hygiene set the strict
// profile enables on top of the paper checks.
func registerStrictChecks(r *Registry) {
	r.MustRegister(&Check{
		ID: "validity-nesting", Severity: Warn, Scope: ScopeChain,
		Description: "child certificate validity extends beyond its issuer's",
		Citation:    "§4.2 (path validity hygiene); arXiv:2009.08772",
		Profiles:    strictProfiles,
		ChainFn: func(ctx *Context, co *Collector) {
			for i, link := range ctx.Analysis.Links {
				if !link.Matched() {
					continue
				}
				child, parent := ctx.Chain[i], ctx.Chain[i+1]
				if child.NotBefore.Before(parent.NotBefore) || child.NotAfter.After(parent.NotAfter) {
					co.Add(i, "certificate outlives its issuer: child valid %s–%s, issuer %s–%s",
						child.NotBefore.Format("2006-01-02"), child.NotAfter.Format("2006-01-02"),
						parent.NotBefore.Format("2006-01-02"), parent.NotAfter.Format("2006-01-02"))
				}
			}
		},
	})
	r.MustRegister(&Check{
		ID: "weak-key", Severity: Warn, Scope: ScopeCert,
		Description: "public key below current strength floors",
		Citation:    "arXiv:2401.18053 (linting methodology)",
		Profiles:    strictProfiles,
		CertFn: func(ctx *Context, co *Collector, m *certmodel.Meta, pos int) {
			switch m.KeyAlg {
			case certmodel.KeyRSA:
				switch {
				case m.KeyBits == 0:
				case m.KeyBits < 1024:
					co.AddSeverity(Error, pos, "RSA key of %d bits is trivially breakable", m.KeyBits)
				case m.KeyBits < 2048:
					co.Add(pos, "RSA key of %d bits is below the 2048-bit floor", m.KeyBits)
				}
			case certmodel.KeyECDSA:
				if m.KeyBits > 0 && m.KeyBits < 256 {
					co.Add(pos, "ECDSA key over a %d-bit curve is below the P-256 floor", m.KeyBits)
				}
			case certmodel.KeyDSA:
				co.Add(pos, "DSA keys are retired from the Web PKI")
			}
		},
	})
	r.MustRegister(&Check{
		ID: "deprecated-sig-alg", Severity: Warn, Scope: ScopeCert,
		Description: "signature algorithm deprecated for new issuance",
		Citation:    "arXiv:2401.18053 (linting methodology)",
		Profiles:    strictProfiles,
		CertFn: func(ctx *Context, co *Collector, m *certmodel.Meta, pos int) {
			alg := strings.ToLower(m.SigAlg)
			switch {
			case alg == "":
			case strings.Contains(alg, "md5") || strings.Contains(alg, "md2"):
				co.AddSeverity(Error, pos, "signature algorithm %q is cryptographically broken", m.SigAlg)
			case strings.Contains(alg, "sha1") || strings.Contains(alg, "sha-1"):
				co.Add(pos, "signature algorithm %q is deprecated (SHA-1)", m.SigAlg)
			}
		},
	})
	r.MustRegister(&Check{
		ID: "duplicate-in-chain", Severity: Warn, Scope: ScopeChain,
		Description: "identical certificate delivered twice in one chain",
		Citation:    "§4.2 (unnecessary certificates)",
		Profiles:    strictProfiles,
		ChainFn: func(ctx *Context, co *Collector) {
			first := make(map[certmodel.Fingerprint]int)
			for i, m := range ctx.Chain {
				if j, seen := first[m.FP]; seen {
					co.Add(i, "duplicate of the certificate at position %d", j)
					continue
				}
				first[m.FP] = i
			}
		},
	})
	r.MustRegister(&Check{
		ID: "chain-out-of-order", Severity: Warn, Scope: ScopeChain,
		Description: "delivered order broken but a matched ordering exists",
		Citation:    "§4.2/Appendix F.2 (leaf-first misdelivery)",
		Profiles:    strictProfiles,
		ChainFn: func(ctx *Context, co *Collector) {
			a := ctx.Analysis
			if a.MismatchRatio == 0 || len(ctx.Chain) < 2 {
				return
			}
			if matchedReorderExists(ctx.Chain) {
				co.Add(-1, "links mismatch as delivered, but a reordering of the same certificates forms a matched path")
			}
		},
	})
	r.MustRegister(&Check{
		ID: "pathlen-violation", Severity: Error, Scope: ScopeChain,
		Description: "matched path deeper than an issuer's pathLenConstraint",
		Citation:    "§4.3 (basicConstraints hygiene)",
		Profiles:    strictProfiles,
		ChainFn: func(ctx *Context, co *Collector) {
			a := ctx.Analysis
			if a.Complete == nil || a.Complete.Len() < 2 {
				return
			}
			for j := a.Complete.Start + 1; j <= a.Complete.End; j++ {
				m := ctx.Chain[j]
				// Intermediates strictly between the leaf and this issuer.
				depth := j - a.Complete.Start - 1
				if m.HasPathLen && depth > m.PathLen {
					co.Add(j, "pathLenConstraint %d allows %d intermediate(s) below, but the matched path has %d",
						m.PathLen, m.PathLen, depth)
				}
			}
		},
	})
	r.MustRegister(&Check{
		ID: "eku-absent", Severity: Info, Scope: ScopeCert,
		Description: "leaf without extended key usage",
		Citation:    "§4.3 (minimal private issuance practices)",
		Profiles:    strictProfiles,
		Applies:     leafPositionOnly,
		CertFn: func(ctx *Context, co *Collector, m *certmodel.Meta, pos int) {
			if len(m.EKU) == 0 && !m.SelfSigned() {
				co.Add(pos, "no extended key usage; issuance intent is unverifiable (log-level sources may simply not record it)")
			}
		},
	})
	r.MustRegister(&Check{
		ID: "eku-mismatch", Severity: Warn, Scope: ScopeCert,
		Description: "leaf EKU excludes TLS server authentication",
		Citation:    "§4.3 (certificates serving TLS without serverAuth)",
		Profiles:    strictProfiles,
		Applies:     leafPositionOnly,
		CertFn: func(ctx *Context, co *Collector, m *certmodel.Meta, pos int) {
			if len(m.EKU) == 0 {
				return
			}
			for _, e := range m.EKU {
				if e == "serverAuth" || e == "any" {
					return
				}
			}
			co.Add(pos, "extended key usage %v omits serverAuth on a TLS-served leaf", m.EKU)
		},
	})
	r.MustRegister(&Check{
		ID: "san-cn-mismatch", Severity: Warn, Scope: ScopeCert,
		Description: "DNS-shaped CN not covered by any SAN",
		Citation:    "Appendix B (name mismatch failures)",
		Profiles:    strictProfiles,
		Applies:     leafPositionOnly,
		CertFn: func(ctx *Context, co *Collector, m *certmodel.Meta, pos int) {
			cn := m.Subject.CommonName()
			if len(m.SAN) == 0 || !dnsShaped(cn) {
				return
			}
			if !sanCovers(m.SAN, cn) {
				co.Add(pos, "common name %q is not covered by any subjectAltName entry", cn)
			}
		},
	})
	r.MustRegister(&Check{
		ID: "serial-reuse", Severity: Error, Scope: ScopeChain,
		Description: "one issuer reusing a serial for distinct certificates",
		Citation:    "§4.3 (non-compliant private issuance)",
		Profiles:    strictProfiles,
		ChainFn: func(ctx *Context, co *Collector) {
			for i, m := range ctx.Chain {
				if m.SerialHex == "" {
					continue
				}
				for j := 0; j < i; j++ {
					o := ctx.Chain[j]
					if o.SerialHex == m.SerialHex && o.Issuer.Equal(m.Issuer) && o.FP != m.FP {
						co.Add(i, "issuer %q reused serial %s already seen at position %d for a different certificate",
							m.Issuer.CommonName(), m.SerialHex, j)
						break
					}
				}
			}
		},
	})
	r.MustRegister(&Check{
		ID: "aia-absent", Severity: Info, Scope: ScopeCert,
		Description: "leaf without AIA/OCSP endpoints",
		Citation:    "§6.2 (revocation and repair tooling)",
		Profiles:    strictProfiles,
		Applies:     leafPositionOnly,
		CertFn: func(ctx *Context, co *Collector, m *certmodel.Meta, pos int) {
			if !m.SelfSigned() && len(m.OCSPServers) == 0 && len(m.CAIssuerURLs) == 0 {
				co.Add(pos, "no authority information access; clients cannot fetch the issuer or check revocation")
			}
		},
	})
	r.MustRegister(&Check{
		ID: "wildcard-apex-overlap", Severity: Info, Scope: ScopeCert,
		Description: "wildcard SAN alongside its apex domain",
		Citation:    "Appendix B (naming oddities)",
		Profiles:    strictProfiles,
		CertFn: func(ctx *Context, co *Collector, m *certmodel.Meta, pos int) {
			for _, san := range m.SAN {
				if !strings.HasPrefix(san, "*.") {
					continue
				}
				if sanHas(m.SAN, san[2:]) {
					co.Add(pos, "wildcard %q and its apex %q both listed; the pair is redundant for most validators", san, san[2:])
					return
				}
			}
		},
	})
	r.MustRegister(&Check{
		ID: "near-expiry", Severity: Warn, Scope: ScopeCert,
		Description: "certificate expiring inside the renewal window",
		Citation:    "§4.2 (expired leaves kept in production)",
		Profiles:    strictProfiles,
		CertFn: func(ctx *Context, co *Collector, m *certmodel.Meta, pos int) {
			if m.ExpiredAt(ctx.Cfg.Now) {
				return
			}
			if left := m.NotAfter.Sub(ctx.Cfg.Now); left <= ctx.Cfg.NearExpiry {
				co.Add(pos, "certificate expires %s (within the %d-day renewal window)",
					m.NotAfter.Format("2006-01-02"), int(ctx.Cfg.NearExpiry.Hours()/24))
			}
		},
	})
	r.MustRegister(&Check{
		ID: "empty-dn", Severity: Warn, Scope: ScopeCert,
		Description: "empty issuer or subject distinguished name",
		Citation:    "§4.3 (minimal private issuance practices)",
		Profiles:    strictProfiles,
		CertFn: func(ctx *Context, co *Collector, m *certmodel.Meta, pos int) {
			if m.SubjectKey() == "" {
				co.Add(pos, "empty subject DN; clients cannot name-match this certificate")
			}
			if m.IssuerKey() == "" {
				co.Add(pos, "empty issuer DN; the issuing authority is unidentifiable")
			}
		},
	})
	r.MustRegister(&Check{
		ID: "self-issued-intermediate", Severity: Warn, Scope: ScopeChain,
		Description: "self-issued CA certificate in the chain interior",
		Citation:    "§4.3 (self-signed certificates beyond leaves)",
		Profiles:    strictProfiles,
		ChainFn: func(ctx *Context, co *Collector) {
			for i := 1; i < len(ctx.Chain)-1; i++ {
				m := ctx.Chain[i]
				if m.SelfSigned() && m.CanIssue() {
					co.Add(i, "self-issued certificate %q in the chain interior cannot extend any path", m.Subject.CommonName())
				}
			}
		},
	})
	r.MustRegister(&Check{
		ID: "cross-sign-divergence", Severity: Info, Scope: ScopeChain,
		Description: "cross-sign and textual parent both delivered",
		Citation:    "Appendix D.1; arXiv:2009.08772 (cross-sign path divergence)",
		Profiles:    strictProfiles,
		ChainFn: func(ctx *Context, co *Collector) {
			for i, link := range ctx.Analysis.Links {
				if link != chain.LinkCrossSign {
					continue
				}
				want := ctx.Chain[i].Issuer
				for j, m := range ctx.Chain {
					if j != i+1 && m.Subject.Equal(want) {
						co.Add(-1, "pair %d chains through a cross-sign while the textual issuer is also delivered at position %d; validation paths diverge", i, j)
						break
					}
				}
			}
		},
	})
}

func isStagingPlaceholder(m *certmodel.Meta) bool {
	cn := m.Subject.CommonName()
	icn := m.Issuer.CommonName()
	return strings.HasPrefix(cn, "Fake LE ") || strings.HasPrefix(icn, "Fake LE ") ||
		strings.Contains(cn, "STAGING") || strings.Contains(icn, "STAGING")
}

// dnsShaped reports whether a CN plausibly names a DNS identity.
func dnsShaped(cn string) bool {
	return strings.Contains(cn, ".") && !strings.ContainsAny(cn, " \t") &&
		!strings.EqualFold(cn, "localhost")
}

// sanHas reports an exact (case-insensitive) SAN entry.
func sanHas(sans []string, name string) bool {
	for _, s := range sans {
		if strings.EqualFold(s, name) {
			return true
		}
	}
	return false
}

// sanCovers reports whether any SAN entry covers the name, honoring
// single-label wildcards.
func sanCovers(sans []string, name string) bool {
	name = strings.ToLower(name)
	for _, s := range sans {
		s = strings.ToLower(s)
		if s == name {
			return true
		}
		if suffix, ok := strings.CutPrefix(s, "*."); ok {
			rest, matched := strings.CutSuffix(name, "."+suffix)
			if matched && rest != "" && !strings.Contains(rest, ".") {
				return true
			}
		}
	}
	return false
}

// matchedReorderExists reports whether some permutation of the chain forms a
// fully matched path (issuer(i) == subject(i+1) for every adjacent pair).
// Chains longer than 8 certificates are skipped: the search is exponential
// in the worst case and delivered chains that long are already pathological.
func matchedReorderExists(ch certmodel.Chain) bool {
	n := len(ch)
	if n < 2 || n > 8 {
		return false
	}
	issuer := make([]string, n)
	subject := make([]string, n)
	for i, m := range ch {
		issuer[i] = m.IssuerKey()
		subject[i] = m.SubjectKey()
	}
	used := make([]bool, n)
	var extend func(cur, placed int) bool
	extend = func(cur, placed int) bool {
		if placed == n {
			return true
		}
		for j := 0; j < n; j++ {
			if used[j] || subject[j] != issuer[cur] {
				continue
			}
			// A self-link (self-signed certificate matching itself) cannot
			// extend the path; skip identical positions.
			if j == cur {
				continue
			}
			used[j] = true
			if extend(j, placed+1) {
				return true
			}
			used[j] = false
		}
		return false
	}
	for start := 0; start < n; start++ {
		used[start] = true
		if extend(start, 1) {
			return true
		}
		used[start] = false
	}
	return false
}
