package certmodel

import (
	"crypto/ecdsa"
	"crypto/ed25519"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/rsa"
	"crypto/x509"
	"crypto/x509/pkix"
	"math/big"
	"strings"
	"testing"
	"time"

	"certchains/internal/dn"
)

func mkMeta(issuer, subject string) *Meta {
	iss := dn.MustParse(issuer)
	sub := dn.MustParse(subject)
	nb := time.Date(2020, 9, 1, 0, 0, 0, 0, time.UTC)
	na := nb.AddDate(1, 0, 0)
	return &Meta{
		FP:        SyntheticFingerprint(iss, sub, "01", nb, na),
		Issuer:    iss,
		Subject:   sub,
		SerialHex: "01",
		NotBefore: nb,
		NotAfter:  na,
		KeyAlg:    KeyECDSA,
		KeyBits:   256,
		BC:        BCAbsent,
	}
}

func TestSelfSigned(t *testing.T) {
	if !mkMeta("CN=a", "CN=a").SelfSigned() {
		t.Error("identical issuer/subject should be self-signed")
	}
	if mkMeta("CN=a", "CN=b").SelfSigned() {
		t.Error("distinct issuer/subject should not be self-signed")
	}
	// Normalization should apply: alias + spacing.
	m := &Meta{Issuer: dn.MustParse("commonName=a, O=x"), Subject: dn.MustParse("CN=a,O=x")}
	if !m.SelfSigned() {
		t.Error("normalized-equal DNs should count as self-signed")
	}
}

func TestValidity(t *testing.T) {
	m := mkMeta("CN=ca", "CN=leaf")
	mid := m.NotBefore.AddDate(0, 6, 0)
	if !m.ValidAt(mid) {
		t.Error("mid-window should be valid")
	}
	if m.ValidAt(m.NotBefore.Add(-time.Second)) {
		t.Error("before NotBefore should be invalid")
	}
	if m.ValidAt(m.NotAfter.Add(time.Second)) {
		t.Error("after NotAfter should be invalid")
	}
	if !m.ExpiredAt(m.NotAfter.Add(time.Hour)) {
		t.Error("past NotAfter should be expired")
	}
	if m.ExpiredAt(m.NotAfter) {
		t.Error("exactly NotAfter is not yet expired")
	}
	if d := m.ValidityDays(); d != 365 {
		t.Errorf("ValidityDays = %d, want 365", d)
	}
}

func TestCanIssue(t *testing.T) {
	cases := []struct {
		bc   BasicConstraints
		want bool
	}{
		{BCAbsent, true},
		{BCTrue, true},
		{BCFalse, false},
	}
	for _, c := range cases {
		m := mkMeta("CN=ca", "CN=x")
		m.BC = c.bc
		if got := m.CanIssue(); got != c.want {
			t.Errorf("CanIssue with %v = %v, want %v", c.bc, got, c.want)
		}
	}
}

func TestBasicConstraintsString(t *testing.T) {
	if BCAbsent.String() != "absent" || BCFalse.String() != "CA=FALSE" || BCTrue.String() != "CA=TRUE" {
		t.Error("unexpected BasicConstraints strings")
	}
	if BasicConstraints(42).String() == "" {
		t.Error("out-of-range value should still render")
	}
}

func TestSyntheticFingerprintDeterminism(t *testing.T) {
	a := mkMeta("CN=ca,O=org", "CN=leaf")
	b := mkMeta("CN=ca, O=org", "CN=leaf") // same after normalization
	if a.FP != b.FP {
		t.Error("normalization-equal fields must fingerprint identically")
	}
	c := mkMeta("CN=ca,O=org", "CN=other")
	if a.FP == c.FP {
		t.Error("different subjects must fingerprint differently")
	}
	if len(a.FP) != 64 {
		t.Errorf("fingerprint length = %d, want 64 hex chars", len(a.FP))
	}
}

func TestChainKey(t *testing.T) {
	a := mkMeta("CN=ca", "CN=leaf")
	b := mkMeta("CN=root", "CN=ca")
	ch1 := Chain{a, b}
	ch2 := Chain{a, b}
	if ch1.Key() != ch2.Key() {
		t.Error("identical chains must share a key")
	}
	if ch1.Key() == (Chain{b, a}).Key() {
		t.Error("order must affect the chain key")
	}
	cl := ch1.Clone()
	cl[0] = b
	if ch1[0] != a {
		t.Error("Clone must not alias the original slice")
	}
}

func TestFromX509(t *testing.T) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(0x1234),
		Subject:               pkix.Name{CommonName: "leaf.example.com", Organization: []string{"Example"}},
		Issuer:                pkix.Name{CommonName: "Example CA"},
		NotBefore:             time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:              time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC),
		BasicConstraintsValid: true,
		IsCA:                  false,
		DNSNames:              []string{"leaf.example.com", "www.leaf.example.com"},
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	m := FromX509(cert)
	if m.Subject.CommonName() != "leaf.example.com" {
		t.Errorf("subject CN = %q", m.Subject.CommonName())
	}
	if m.SerialHex != "1234" {
		t.Errorf("serial = %q, want 1234", m.SerialHex)
	}
	if m.KeyAlg != KeyECDSA {
		t.Errorf("key alg = %q, want ecdsa", m.KeyAlg)
	}
	if m.BC != BCFalse {
		t.Errorf("BC = %v, want CA=FALSE", m.BC)
	}
	if len(m.SAN) != 2 {
		t.Errorf("SAN count = %d, want 2", len(m.SAN))
	}
	if len(m.FP) != 64 {
		t.Errorf("fingerprint length = %d", len(m.FP))
	}
	// Self-signed template: issuer == subject after signing with itself.
	if !m.SelfSigned() {
		t.Error("self-issued certificate should be self-signed in the model")
	}
}

func TestFromX509CATrue(t *testing.T) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "Root CA"},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(time.Hour),
		BasicConstraintsValid: true,
		IsCA:                  true,
		KeyUsage:              x509.KeyUsageCertSign,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		t.Fatal(err)
	}
	cert, _ := x509.ParseCertificate(der)
	m := FromX509(cert)
	if m.BC != BCTrue {
		t.Errorf("BC = %v, want CA=TRUE", m.BC)
	}
	if !m.CanIssue() {
		t.Error("CA cert should be able to issue")
	}
}

func TestMetaString(t *testing.T) {
	m := mkMeta("CN=ca", "CN=leaf")
	s := m.String()
	if s == "" || len(s) < 10 {
		t.Errorf("String too short: %q", s)
	}
}

func TestFromX509KeyAlgorithms(t *testing.T) {
	// Ed25519.
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(7),
		Subject:      pkix.Name{CommonName: "ed.example.com"},
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(time.Hour),
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, pub, priv)
	if err != nil {
		t.Fatal(err)
	}
	cert, _ := x509.ParseCertificate(der)
	m := FromX509(cert)
	if m.KeyAlg != KeyEd25519 {
		t.Errorf("key alg = %q, want ed25519", m.KeyAlg)
	}
	// Absent basicConstraints maps to BCAbsent.
	if m.BC != BCAbsent {
		t.Errorf("BC = %v, want absent", m.BC)
	}
	// RSA.
	rsaKey, err := rsa.GenerateKey(rand.Reader, 2048)
	if err != nil {
		t.Fatal(err)
	}
	der2, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &rsaKey.PublicKey, rsaKey)
	if err != nil {
		t.Fatal(err)
	}
	cert2, _ := x509.ParseCertificate(der2)
	if m2 := FromX509(cert2); m2.KeyAlg != KeyRSA {
		t.Errorf("key alg = %q, want rsa", m2.KeyAlg)
	}
}

func TestShortFPShortInput(t *testing.T) {
	m := mkMeta("CN=a", "CN=b")
	m.FP = "short"
	if s := m.String(); !strings.Contains(s, "short") {
		t.Errorf("String = %q", s)
	}
}

func TestKeyAlgorithmConstants(t *testing.T) {
	for _, a := range []KeyAlgorithm{KeyRSA, KeyECDSA, KeyEd25519, KeyDSA, KeyUnknown} {
		if string(a) == "" {
			t.Error("empty key algorithm constant")
		}
	}
}
