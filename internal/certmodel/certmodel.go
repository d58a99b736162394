// Package certmodel defines the certificate metadata model that the whole
// pipeline operates on.
//
// The paper's campus dataset contains no raw certificates (IRB restriction):
// only the structured fields Zeek exports in x509.log. This package models
// exactly that projection — issuer DN, subject DN, validity window, key
// algorithm, serial, and the tri-state basicConstraints — plus a stable
// fingerprint used to cross-reference ssl.log entries. When full certificates
// are available (the retrospective scan of Section 5 and the Appendix D
// validation study), Meta is derived from a *x509.Certificate via FromX509 so
// both halves of the system share one model.
package certmodel

import (
	"crypto/ecdsa"
	"crypto/ed25519"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/x509"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"certchains/internal/dn"
)

// BasicConstraints is the tri-state basicConstraints extension value. The
// paper highlights (§4.3) that most non-public-DB issuer certificates omit
// the extension entirely rather than setting CA to TRUE or FALSE, so the
// model must distinguish "absent" from "false".
type BasicConstraints int

const (
	// BCAbsent means the certificate carries no basicConstraints extension.
	BCAbsent BasicConstraints = iota
	// BCFalse means basicConstraints is present with CA=FALSE.
	BCFalse
	// BCTrue means basicConstraints is present with CA=TRUE.
	BCTrue
)

// String implements fmt.Stringer.
func (b BasicConstraints) String() string {
	switch b {
	case BCAbsent:
		return "absent"
	case BCFalse:
		return "CA=FALSE"
	case BCTrue:
		return "CA=TRUE"
	default:
		return fmt.Sprintf("BasicConstraints(%d)", int(b))
	}
}

// KeyAlgorithm identifies the public-key algorithm of a certificate, at the
// granularity Zeek logs it.
type KeyAlgorithm string

// Key algorithms observed in campus traffic.
const (
	KeyRSA     KeyAlgorithm = "rsa"
	KeyECDSA   KeyAlgorithm = "ecdsa"
	KeyEd25519 KeyAlgorithm = "ed25519"
	KeyDSA     KeyAlgorithm = "dsa"
	KeyUnknown KeyAlgorithm = "unknown"
)

// Fingerprint is the hex-encoded SHA-256 of the certificate (or, for purely
// synthetic log-level certificates, of a canonical rendering of its fields).
// It doubles as the Zeek file-unique identifier that links x509.log rows to
// ssl.log cert_chain_fuids entries.
type Fingerprint string

// Meta is the log-level view of one certificate.
type Meta struct {
	// FP uniquely identifies the certificate across the dataset.
	FP Fingerprint
	// Issuer is the parsed issuer distinguished name.
	Issuer dn.DN
	// Subject is the parsed subject distinguished name.
	Subject dn.DN
	// SerialHex is the certificate serial number in lower-case hex.
	SerialHex string
	// NotBefore and NotAfter bound the validity window.
	NotBefore time.Time
	NotAfter  time.Time
	// KeyAlg is the public-key algorithm.
	KeyAlg KeyAlgorithm
	// KeyBits is the public key size in bits (0 when unknown).
	KeyBits int
	// BC is the tri-state basicConstraints value.
	BC BasicConstraints
	// SAN holds dNSName subject alternative names when logged.
	SAN []string
	// SigAlg is the signature algorithm as Zeek logs it (e.g.
	// "sha256WithRSAEncryption"); empty when unknown.
	SigAlg string
	// HasPathLen reports whether basicConstraints carries a pathLenConstraint;
	// PathLen is its value (meaningful only when HasPathLen is true).
	HasPathLen bool
	PathLen    int
	// EKU lists extended key usages by short name ("serverAuth", ...); empty
	// when the extension is absent or the data source does not log it.
	EKU []string
	// OCSPServers and CAIssuerURLs carry the Authority Information Access
	// endpoints when full certificates are available; log-level sources leave
	// them empty.
	OCSPServers  []string
	CAIssuerURLs []string

	// issuerKey/subjectKey memoize dn.DN.Normalized() for the issuer and
	// subject. Normalization dominated the observe-stage profile (~50% of
	// allocations before caching), and every consumer — trust-DB lookups,
	// link matching, graph role refresh, interception attribution — keys on
	// the same normalized string, so one computation per certificate replaces
	// one per use. atomic.Pointer keeps the lazy fill race-safe across
	// pipeline shards (normalization is deterministic, so a duplicated
	// compute stores the same value). Issuer/Subject must not be mutated
	// after the first key access.
	issuerKey  atomic.Pointer[string]
	subjectKey atomic.Pointer[string]
}

// IssuerKey returns Issuer.Normalized(), computed once per Meta and cached.
func (m *Meta) IssuerKey() string {
	if p := m.issuerKey.Load(); p != nil {
		return *p
	}
	s := m.Issuer.Normalized()
	m.issuerKey.CompareAndSwap(nil, &s)
	return *m.issuerKey.Load()
}

// SubjectKey returns Subject.Normalized(), computed once per Meta and cached.
func (m *Meta) SubjectKey() string {
	if p := m.subjectKey.Load(); p != nil {
		return *p
	}
	s := m.Subject.Normalized()
	m.subjectKey.CompareAndSwap(nil, &s)
	return *m.subjectKey.Load()
}

// SelfSigned reports whether issuer and subject are identical — the paper's
// operational definition of a self-signed certificate (§4.3), which is all
// that log data can support (no signature to verify). The comparison is
// dn.DN.Equal over the cached keys: the RDN-count guard preserves Equal's
// exact semantics for values that embed separator characters.
func (m *Meta) SelfSigned() bool {
	return len(m.Issuer) == len(m.Subject) && m.IssuerKey() == m.SubjectKey()
}

// ExpiredAt reports whether the certificate validity window has ended at t.
func (m *Meta) ExpiredAt(t time.Time) bool {
	return t.After(m.NotAfter)
}

// ValidAt reports whether t falls inside [NotBefore, NotAfter].
func (m *Meta) ValidAt(t time.Time) bool {
	return !t.Before(m.NotBefore) && !t.After(m.NotAfter)
}

// ValidityDays returns the validity period length in whole days.
func (m *Meta) ValidityDays() int {
	return int(m.NotAfter.Sub(m.NotBefore) / (24 * time.Hour))
}

// CanIssue reports whether this certificate, per its own extensions, is
// allowed to act as a CA. Certificates omitting basicConstraints are treated
// as potentially issuing, matching how legacy verifiers (and the paper's
// structural analysis) must treat them.
func (m *Meta) CanIssue() bool {
	return m.BC != BCFalse
}

// String returns a compact one-line description for diagnostics.
func (m *Meta) String() string {
	return fmt.Sprintf("cert{%s subj=%q iss=%q bc=%s}", shortFP(m.FP), m.Subject.String(), m.Issuer.String(), m.BC)
}

func shortFP(fp Fingerprint) string {
	if len(fp) > 12 {
		return string(fp[:12])
	}
	return string(fp)
}

// SyntheticFingerprint derives a deterministic fingerprint for a certificate
// that exists only as log fields. Two Meta values with identical identifying
// fields fingerprint identically, mirroring how a DER hash is stable.
func SyntheticFingerprint(issuer, subject dn.DN, serialHex string, notBefore, notAfter time.Time) Fingerprint {
	iss, sub, serial := issuer.Normalized(), subject.Normalized(), strings.ToLower(serialHex)
	// The hashed bytes are issuer, subject, serial and the two epochs in
	// decimal, NUL-separated, built on the stack unless they outgrow buf.
	var buf [256]byte
	b := append(append(buf[:0], iss...), 0)
	b = append(append(b, sub...), 0)
	b = append(append(b, serial...), 0)
	b = append(strconv.AppendInt(b, notBefore.Unix(), 10), 0)
	b = strconv.AppendInt(b, notAfter.Unix(), 10)
	sum := sha256.Sum256(b)
	return Fingerprint(hex.EncodeToString(sum[:]))
}

// FromX509 projects a parsed X.509 certificate into the log-level model,
// hashing the raw DER for the fingerprint exactly as Zeek does.
func FromX509(c *x509.Certificate) *Meta {
	sum := sha256.Sum256(c.Raw)
	m := &Meta{
		FP:        Fingerprint(hex.EncodeToString(sum[:])),
		Issuer:    fromPkixName(c.Issuer.String()),
		Subject:   fromPkixName(c.Subject.String()),
		SerialHex: strings.ToLower(c.SerialNumber.Text(16)),
		NotBefore: c.NotBefore,
		NotAfter:  c.NotAfter,
		SAN:       append([]string(nil), c.DNSNames...),
		SigAlg:    strings.ToLower(c.SignatureAlgorithm.String()),
		EKU:       ekuNames(c.ExtKeyUsage),
	}
	m.OCSPServers = append(m.OCSPServers, c.OCSPServer...)
	m.CAIssuerURLs = append(m.CAIssuerURLs, c.IssuingCertificateURL...)
	if c.BasicConstraintsValid && c.IsCA && (c.MaxPathLen > 0 || c.MaxPathLenZero) {
		m.HasPathLen = true
		m.PathLen = c.MaxPathLen
	}
	m.KeyBits = publicKeyBits(c)
	switch c.PublicKeyAlgorithm {
	case x509.RSA:
		m.KeyAlg = KeyRSA
	case x509.ECDSA:
		m.KeyAlg = KeyECDSA
	case x509.Ed25519:
		m.KeyAlg = KeyEd25519
	case x509.DSA:
		m.KeyAlg = KeyDSA
	default:
		m.KeyAlg = KeyUnknown
	}
	if c.BasicConstraintsValid {
		if c.IsCA {
			m.BC = BCTrue
		} else {
			m.BC = BCFalse
		}
	} else {
		m.BC = BCAbsent
	}
	return m
}

// ekuNames maps the parsed extended key usages to the short names Zeek-style
// tooling reports.
func ekuNames(ekus []x509.ExtKeyUsage) []string {
	var out []string
	for _, e := range ekus {
		switch e {
		case x509.ExtKeyUsageAny:
			out = append(out, "any")
		case x509.ExtKeyUsageServerAuth:
			out = append(out, "serverAuth")
		case x509.ExtKeyUsageClientAuth:
			out = append(out, "clientAuth")
		case x509.ExtKeyUsageCodeSigning:
			out = append(out, "codeSigning")
		case x509.ExtKeyUsageEmailProtection:
			out = append(out, "emailProtection")
		case x509.ExtKeyUsageTimeStamping:
			out = append(out, "timeStamping")
		case x509.ExtKeyUsageOCSPSigning:
			out = append(out, "OCSPSigning")
		default:
			out = append(out, fmt.Sprintf("eku(%d)", int(e)))
		}
	}
	return out
}

// publicKeyBits derives the key size from the parsed public key.
func publicKeyBits(c *x509.Certificate) int {
	switch k := c.PublicKey.(type) {
	case *rsa.PublicKey:
		return k.N.BitLen()
	case *ecdsa.PublicKey:
		return k.Curve.Params().BitSize
	case ed25519.PublicKey:
		return 256
	default:
		// DSA (deprecated) and unknown key types report no size.
		return 0
	}
}

func fromPkixName(s string) dn.DN {
	d, err := dn.Parse(s)
	if err != nil {
		// pkix.Name.String always yields a parseable RFC 2253 string for
		// certificates we mint; a parse failure means an empty name.
		return dn.DN{}
	}
	return d
}

// Chain is an ordered sequence of certificates exactly as a server delivered
// them in the TLS handshake: index 0 is the first certificate presented
// (normally the leaf).
type Chain []*Meta

// Key returns a deterministic identity for the delivered chain: the ordered
// concatenation of member fingerprints. Two connections delivering the same
// certificates in the same order share a Key; this is the unit the paper
// counts 731,175 of.
func (c Chain) Key() string {
	var b strings.Builder
	for i, m := range c {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(string(m.FP))
	}
	return b.String()
}

// AppendKey appends Key()'s bytes to dst and returns the extended slice. The
// observe hot path builds chain keys into a reused scratch buffer and probes
// maps with the allocation-free m[string(buf)] form, materializing a string
// only on first sight of a chain.
func (c Chain) AppendKey(dst []byte) []byte {
	for i, m := range c {
		if i > 0 {
			dst = append(dst, '|')
		}
		dst = append(dst, m.FP...)
	}
	return dst
}

// Clone returns a shallow copy of the chain slice (members shared).
func (c Chain) Clone() Chain {
	return append(Chain(nil), c...)
}
