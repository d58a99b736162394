package certmodel

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"certchains/internal/dn"
)

func TestMetaSnapshotRoundTrip(t *testing.T) {
	subject, err := dn.Parse("CN=host.example,O=Acme\\, Inc.,C=US")
	if err != nil {
		t.Fatal(err)
	}
	issuer, err := dn.Parse("CN=Acme Issuing CA,O=Acme\\, Inc.,C=US")
	if err != nil {
		t.Fatal(err)
	}
	m := &Meta{
		FP:           "ab12cd",
		Issuer:       issuer,
		Subject:      subject,
		SerialHex:    "0a1b2c",
		NotBefore:    time.Date(2020, 9, 1, 12, 30, 15, 500_000_000, time.UTC),
		NotAfter:     time.Date(2021, 9, 1, 12, 30, 15, 0, time.UTC),
		KeyAlg:       KeyECDSA,
		KeyBits:      256,
		BC:           BCTrue,
		SAN:          []string{"host.example", "alt.example"},
		SigAlg:       "ecdsa-sha256",
		HasPathLen:   true,
		PathLen:      0,
		EKU:          []string{"serverAuth"},
		OCSPServers:  []string{"http://ocsp.example"},
		CAIssuerURLs: []string{"http://ca.example/issuer.crt"},
	}
	data, err := json.Marshal(m.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap MetaSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	r := snap.Meta()
	if !reflect.DeepEqual(r, m) {
		t.Fatalf("round trip differs:\n got %#v\nwant %#v", r, m)
	}
	if !r.Issuer.Equal(m.Issuer) || r.Issuer.String() != m.Issuer.String() {
		t.Fatal("issuer DN differs after round trip")
	}
	if r.ValidityDays() != m.ValidityDays() {
		t.Fatal("validity differs after round trip")
	}
}

func TestMetaSnapshotZeroValues(t *testing.T) {
	m := &Meta{FP: "00ff"}
	data, err := json.Marshal(m.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap MetaSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	r := snap.Meta()
	if r.FP != m.FP || r.BC != BCAbsent || !r.SelfSigned() {
		t.Fatalf("zero-value round trip: %#v", r)
	}
	if r.NotBefore.Unix() != m.NotBefore.Unix() || r.NotAfter.Unix() != m.NotAfter.Unix() {
		t.Fatal("zero times do not round trip by Unix seconds")
	}
}

func TestCertTableRoundTrip(t *testing.T) {
	a := mkMeta("CN=ca", "CN=leaf")
	b := mkMeta("CN=root", "CN=ca")
	certs := CertTable{}
	key := certs.Key(Chain{a, b})
	if key != (Chain{a, b}).Key() || certs.Key(Chain{b}) != string(b.FP) {
		t.Fatal("Key must return the chain key")
	}
	snap := certs.Snapshot()
	if len(snap) != 2 || snap[0].FP > snap[1].FP {
		t.Fatalf("Snapshot = %d entries, want 2 in fingerprint order", len(snap))
	}
	restored, err := RestoreCertTable(snap)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := restored.Chain(key)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Key() != key {
		t.Fatalf("Chain(%q) resolved to %q", key, ch.Key())
	}
	if ch, err := restored.Chain(""); err != nil || len(ch) != 0 {
		t.Fatalf(`Chain("") = %v, %v; want the empty chain`, ch, err)
	}
	if _, err := restored.Chain(key + "|nope"); err == nil {
		t.Fatal("a key naming an unknown certificate resolved")
	}
	if _, err := RestoreCertTable([]MetaSnapshot{{FP: ""}}); err == nil {
		t.Fatal("a certificate without a fingerprint restored")
	}
}
