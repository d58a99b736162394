// Package pki mints a synthetic Web PKI with real ECDSA keys and real X.509
// certificates: roots, intermediates, leaves, cross-signed certificates,
// self-signed server certificates, staging-environment placeholders ("Fake LE
// Intermediate X1"), and deliberately malformed certificates.
//
// The paper cannot share its campus data, and this reproduction cannot reach
// the real Web PKI, so this package substitutes for the CA ecosystem: the
// trust stores in internal/trustdb, the CT log in internal/ctlog, the server
// farm of internal/serverfarm, and the key–signature validator of
// internal/validate all operate on certificates from here. Key material and
// certificate contents are deterministic for a given seed (see
// NewDeterministicRand); signature bytes are not, because Go 1.24's ECDSA
// signing hedges with process-local randomness.
package pki

import (
	"crypto"
	"crypto/ecdsa"
	"crypto/ed25519"
	"crypto/elliptic"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/pem"
	"fmt"
	"io"
	"math/big"
	"time"

	"certchains/internal/certmodel"
)

// Certificate bundles the raw DER, the parsed x509 form, the log-level Meta
// projection, and (when minted here) the private key, so that a single value
// can be served over TLS, logged to CT, written to Zeek logs, and validated.
type Certificate struct {
	// Raw is the DER encoding. For deliberately malformed certificates this
	// does not parse; X509 is then nil and Meta carries the leniently
	// extracted fields (mirroring how Zeek still logs fields that stricter
	// parsers reject).
	Raw []byte
	// X509 is the parsed certificate, nil when Raw is malformed.
	X509 *x509.Certificate
	// Meta is the log-level projection used by the analysis pipeline.
	Meta *certmodel.Meta
	// Key is the private key when this certificate was minted locally.
	Key crypto.Signer
}

// PEM returns the PEM encoding of the certificate.
func (c *Certificate) PEM() []byte {
	return pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: c.Raw})
}

// CA is a certificate authority able to issue further certificates.
type CA struct {
	Cert *Certificate
	// signingCert is the certificate whose subject becomes the issuer of
	// issued certs; identical to Cert except for cross-signed CAs.
	signingCert *x509.Certificate
	key         crypto.Signer
	mint        *Mint
}

// Mint creates certificates with a deterministic random stream and a
// monotonically increasing serial number space.
type Mint struct {
	rand   io.Reader
	serial int64
	clock  time.Time
}

// NewMint returns a Mint seeded for reproducibility. The clock anchors
// default validity windows; the paper's collection period starts 2020-09-01.
func NewMint(seed int64, clock time.Time) *Mint {
	return &Mint{rand: NewDeterministicRand(seed), serial: 1000, clock: clock}
}

// Clock returns the mint's current simulated time.
func (m *Mint) Clock() time.Time { return m.clock }

// AdvanceClock moves the simulated clock forward.
func (m *Mint) AdvanceClock(d time.Duration) { m.clock = m.clock.Add(d) }

func (m *Mint) nextSerial() *big.Int {
	m.serial++
	return big.NewInt(m.serial)
}

// genKey derives a P-256 key directly from the deterministic stream.
// crypto/ecdsa.GenerateKey cannot be used here: since Go 1.20 it consumes a
// random extra byte from the reader (randutil.MaybeReadByte), which breaks
// seeded reproducibility across runs.
func (m *Mint) genKey() (*ecdsa.PrivateKey, error) {
	curve := elliptic.P256()
	n := curve.Params().N
	byteLen := (n.BitLen() + 7) / 8
	buf := make([]byte, byteLen)
	for {
		if _, err := io.ReadFull(m.rand, buf); err != nil {
			return nil, fmt.Errorf("pki: read key material: %w", err)
		}
		d := new(big.Int).SetBytes(buf)
		if d.Sign() == 0 || d.Cmp(n) >= 0 {
			continue // rejection sampling keeps the distribution uniform
		}
		priv := &ecdsa.PrivateKey{D: d}
		priv.PublicKey.Curve = curve
		priv.PublicKey.X, priv.PublicKey.Y = curve.ScalarBaseMult(d.Bytes())
		return priv, nil
	}
}

// certSpec collects the options applied when minting one certificate.
type certSpec struct {
	notBefore   time.Time
	notAfter    time.Time
	omitBC      bool
	isCA        bool
	maxPathLen  int
	sans        []string
	keyUsage    x509.KeyUsage
	extKeyUsage []x509.ExtKeyUsage
}

// Option customizes a minted certificate.
type Option func(*certSpec)

// WithValidity sets the validity window explicitly.
func WithValidity(notBefore, notAfter time.Time) Option {
	return func(s *certSpec) { s.notBefore, s.notAfter = notBefore, notAfter }
}

// WithValidityDays sets the window to d days starting at the mint clock.
func WithValidityDays(d int) Option {
	return func(s *certSpec) {
		s.notAfter = s.notBefore.AddDate(0, 0, d)
	}
}

// WithExpired backdates the certificate so it expired `ago` before the mint
// clock; the paper observes hybrid chains with leaves expired over 5 years.
func WithExpired(ago time.Duration) Option {
	return func(s *certSpec) {
		s.notAfter = s.notBefore.Add(-ago)
		s.notBefore = s.notAfter.AddDate(-1, 0, 0)
	}
}

// WithOmitBasicConstraints drops the basicConstraints extension entirely —
// the behaviour §4.3 measures in 55–78% of non-public-DB certificates.
func WithOmitBasicConstraints() Option {
	return func(s *certSpec) { s.omitBC = true }
}

// WithSANs sets dNSName subject alternative names.
func WithSANs(sans ...string) Option {
	return func(s *certSpec) { s.sans = sans }
}

func (m *Mint) newSpec(isCA bool, opts []Option) *certSpec {
	s := &certSpec{
		notBefore: m.clock.Add(-24 * time.Hour),
		isCA:      isCA,
	}
	if isCA {
		s.notAfter = s.notBefore.AddDate(10, 0, 0)
		s.keyUsage = x509.KeyUsageCertSign | x509.KeyUsageCRLSign
		s.maxPathLen = -1
	} else {
		s.notAfter = s.notBefore.AddDate(1, 0, 0)
		s.keyUsage = x509.KeyUsageDigitalSignature | x509.KeyUsageKeyEncipherment
		s.extKeyUsage = []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth}
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

func (s *certSpec) template(subject pkix.Name, serial *big.Int) *x509.Certificate {
	t := &x509.Certificate{
		SerialNumber:          serial,
		Subject:               subject,
		NotBefore:             s.notBefore,
		NotAfter:              s.notAfter,
		KeyUsage:              s.keyUsage,
		ExtKeyUsage:           s.extKeyUsage,
		DNSNames:              s.sans,
		BasicConstraintsValid: !s.omitBC,
		IsCA:                  s.isCA && !s.omitBC,
	}
	if s.isCA && !s.omitBC && s.maxPathLen >= 0 {
		t.MaxPathLen = s.maxPathLen
		t.MaxPathLenZero = s.maxPathLen == 0
	}
	return t
}

func (m *Mint) create(tmpl, parent *x509.Certificate, pub crypto.PublicKey, signer crypto.Signer) (*Certificate, error) {
	der, err := x509.CreateCertificate(m.rand, tmpl, parent, pub, signer)
	if err != nil {
		return nil, fmt.Errorf("pki: create certificate %q: %w", tmpl.Subject.CommonName, err)
	}
	parsed, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, fmt.Errorf("pki: reparse certificate %q: %w", tmpl.Subject.CommonName, err)
	}
	return &Certificate{Raw: der, X509: parsed, Meta: certmodel.FromX509(parsed)}, nil
}

// Name is a convenience constructor for pkix.Name with the fields campus
// scenarios use.
func Name(cn string, org ...string) pkix.Name {
	n := pkix.Name{CommonName: cn}
	if len(org) > 0 {
		n.Organization = org[:1]
	}
	if len(org) > 1 {
		n.Country = org[1:2]
	}
	return n
}

// NewRoot mints a self-signed root CA.
func (m *Mint) NewRoot(subject pkix.Name, opts ...Option) (*CA, error) {
	key, err := m.genKey()
	if err != nil {
		return nil, fmt.Errorf("pki: generate root key: %w", err)
	}
	s := m.newSpec(true, opts)
	tmpl := s.template(subject, m.nextSerial())
	cert, err := m.create(tmpl, tmpl, key.Public(), key)
	if err != nil {
		return nil, err
	}
	cert.Key = key
	return &CA{Cert: cert, signingCert: cert.X509, key: key, mint: m}, nil
}

// NewIntermediate mints an intermediate CA signed by ca.
func (ca *CA) NewIntermediate(subject pkix.Name, opts ...Option) (*CA, error) {
	key, err := ca.mint.genKey()
	if err != nil {
		return nil, fmt.Errorf("pki: generate intermediate key: %w", err)
	}
	s := ca.mint.newSpec(true, opts)
	tmpl := s.template(subject, ca.mint.nextSerial())
	cert, err := ca.mint.create(tmpl, ca.signingCert, key.Public(), ca.key)
	if err != nil {
		return nil, err
	}
	cert.Key = key
	return &CA{Cert: cert, signingCert: cert.X509, key: key, mint: ca.mint}, nil
}

// IssueLeaf mints an end-entity certificate signed by ca.
func (ca *CA) IssueLeaf(subject pkix.Name, opts ...Option) (*Certificate, error) {
	key, err := ca.mint.genKey()
	if err != nil {
		return nil, fmt.Errorf("pki: generate leaf key: %w", err)
	}
	s := ca.mint.newSpec(false, opts)
	tmpl := s.template(subject, ca.mint.nextSerial())
	cert, err := ca.mint.create(tmpl, ca.signingCert, key.Public(), ca.key)
	if err != nil {
		return nil, err
	}
	cert.Key = key
	return cert, nil
}

// CrossSign issues a certificate for the other CA's subject and public key
// under this CA — the cross-signing practice (Hiller et al.) that makes
// issuer–subject matching disagree with trust-store reality, which the
// paper's methodology must detect and exempt (Appendix D.1).
func (ca *CA) CrossSign(other *CA, opts ...Option) (*Certificate, error) {
	s := ca.mint.newSpec(true, opts)
	tmpl := s.template(other.Cert.X509.Subject, ca.mint.nextSerial())
	cert, err := ca.mint.create(tmpl, ca.signingCert, other.key.Public(), ca.key)
	if err != nil {
		return nil, err
	}
	cert.Key = other.key
	return cert, nil
}

// CrossSignAs issues a certificate for the other CA's public key under a
// different subject name — the rebranding/cross-sign variant where the same
// CA key operates under two names, which makes issuer–subject matching
// mismatch textually on a cryptographically valid chain (Appendix D.1's
// false-positive source).
func (ca *CA) CrossSignAs(other *CA, subject pkix.Name, opts ...Option) (*Certificate, error) {
	s := ca.mint.newSpec(true, opts)
	tmpl := s.template(subject, ca.mint.nextSerial())
	cert, err := ca.mint.create(tmpl, ca.signingCert, other.key.Public(), ca.key)
	if err != nil {
		return nil, err
	}
	cert.Key = other.key
	return cert, nil
}

// SelfSigned mints a standalone self-signed server certificate — the dominant
// species in non-public-DB-only traffic (94.19% of single-cert chains).
func (m *Mint) SelfSigned(subject pkix.Name, opts ...Option) (*Certificate, error) {
	key, err := m.genKey()
	if err != nil {
		return nil, fmt.Errorf("pki: generate self-signed key: %w", err)
	}
	s := m.newSpec(false, opts)
	tmpl := s.template(subject, m.nextSerial())
	cert, err := m.create(tmpl, tmpl, key.Public(), key)
	if err != nil {
		return nil, err
	}
	cert.Key = key
	return cert, nil
}

// SelfIssued mints a certificate whose issuer and subject differ but which is
// signed by its own key — the DGA cluster pattern of §4.3, where both names
// are randomly generated domains.
func (m *Mint) SelfIssued(issuer, subject pkix.Name, opts ...Option) (*Certificate, error) {
	key, err := m.genKey()
	if err != nil {
		return nil, fmt.Errorf("pki: generate self-issued key: %w", err)
	}
	s := m.newSpec(false, opts)
	serial := m.nextSerial()
	tmpl := s.template(subject, serial)
	// Parent template carrying the desired issuer name; signed by the same
	// key so the signature verifies against the leaf's own public key.
	parent := &x509.Certificate{SerialNumber: serial, Subject: issuer}
	cert, err := m.create(tmpl, parent, &key.PublicKey, key)
	if err != nil {
		return nil, err
	}
	cert.Key = key
	return cert, nil
}

// NewRootEd25519 mints a self-signed root CA with an Ed25519 key. Chains
// through it are valid under issuer–subject matching but carry a key outside
// the reference validator's supported set — the Appendix D
// "unrecognized key" case.
func (m *Mint) NewRootEd25519(subject pkix.Name, opts ...Option) (*CA, error) {
	pub, priv, err := ed25519.GenerateKey(m.rand)
	if err != nil {
		return nil, fmt.Errorf("pki: generate ed25519 root key: %w", err)
	}
	s := m.newSpec(true, opts)
	tmpl := s.template(subject, m.nextSerial())
	cert, err := m.create(tmpl, tmpl, pub, priv)
	if err != nil {
		return nil, err
	}
	cert.Key = priv
	return &CA{Cert: cert, signingCert: cert.X509, key: priv, mint: m}, nil
}

// SelfSignedEd25519 mints a self-signed certificate with an Ed25519 key.
// The Appendix D study found 3 chains whose public keys the reference
// validator did not recognize; internal/validate treats Ed25519 as outside
// its supported set to reproduce that case.
func (m *Mint) SelfSignedEd25519(subject pkix.Name, opts ...Option) (*Certificate, error) {
	pub, priv, err := ed25519.GenerateKey(m.rand)
	if err != nil {
		return nil, fmt.Errorf("pki: generate ed25519 key: %w", err)
	}
	s := m.newSpec(false, opts)
	tmpl := s.template(subject, m.nextSerial())
	der, err := x509.CreateCertificate(m.rand, tmpl, tmpl, pub, priv)
	if err != nil {
		return nil, fmt.Errorf("pki: create ed25519 certificate: %w", err)
	}
	parsed, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, fmt.Errorf("pki: reparse ed25519 certificate: %w", err)
	}
	return &Certificate{Raw: der, X509: parsed, Meta: certmodel.FromX509(parsed)}, nil
}

// Malformed returns a certificate whose Raw bytes do not parse as DER while
// Meta still carries plausible fields — reproducing the single Appendix D
// disagreement where the key–signature validator failed with an ASN.1 parse
// error on a chain the issuer–subject method accepted.
func Malformed(from *Certificate) *Certificate {
	raw := append([]byte(nil), from.Raw...)
	// Corrupt the outer SEQUENCE length so any DER parser rejects it.
	if len(raw) > 3 {
		raw[2] ^= 0x5a
		raw[3] ^= 0xa5
	}
	return &Certificate{Raw: raw, X509: nil, Meta: from.Meta, Key: from.Key}
}

// Chain assembles a delivered chain (leaf first) from certificates.
func Chain(certs ...*Certificate) []*Certificate {
	return certs
}

// Metas projects a certificate slice to the log-level chain model.
func Metas(certs []*Certificate) certmodel.Chain {
	out := make(certmodel.Chain, len(certs))
	for i, c := range certs {
		out[i] = c.Meta
	}
	return out
}
