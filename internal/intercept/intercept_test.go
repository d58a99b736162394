package intercept

import (
	"testing"
	"time"

	"certchains/internal/certmodel"
	"certchains/internal/ctlog"
	"certchains/internal/dn"
	"certchains/internal/trustdb"
)

var at = time.Date(2021, 2, 1, 0, 0, 0, 0, time.UTC)

func meta(issuer, subject string, sans ...string) *certmodel.Meta {
	iss := dn.MustParse(issuer)
	sub := dn.MustParse(subject)
	nb := at.AddDate(0, -2, 0)
	na := at.AddDate(1, 0, 0)
	return &certmodel.Meta{
		FP:        certmodel.SyntheticFingerprint(iss, sub, "01", nb, na),
		Issuer:    iss,
		Subject:   sub,
		NotBefore: nb,
		NotAfter:  na,
		SAN:       sans,
	}
}

func testDetector(t *testing.T) (*Detector, *ctlog.Log) {
	t.Helper()
	db := trustdb.New()
	db.AddRoot(trustdb.StoreMozilla, meta("CN=Public Root", "CN=Public Root"))
	ct, err := ctlog.New("test", 5)
	if err != nil {
		t.Fatal(err)
	}
	return NewDetector(db, ct), ct
}

func TestExamineNotCandidate(t *testing.T) {
	d, _ := testDetector(t)
	leaf := meta("CN=Public Root", "CN=www.ok.com", "www.ok.com")
	if v := d.Examine(leaf, "www.ok.com", at); v != NotCandidate {
		t.Errorf("verdict = %v, want not-candidate", v)
	}
}

func TestExamineNoSNI(t *testing.T) {
	d, _ := testDetector(t)
	leaf := meta("CN=Mystery CA", "CN=whatever.local")
	if v := d.Examine(leaf, "", at); v != NoSNI {
		t.Errorf("verdict = %v, want no-sni", v)
	}
}

func TestExamineNoCTRecord(t *testing.T) {
	d, _ := testDetector(t)
	leaf := meta("CN=Corp Internal CA", "CN=internal.corp.example", "internal.corp.example")
	if v := d.Examine(leaf, "internal.corp.example", at); v != NoCTRecord {
		t.Errorf("verdict = %v, want no-ct-record", v)
	}
}

func TestExamineMismatchAndMatch(t *testing.T) {
	d, ct := testDetector(t)
	// CT has the real certificate for www.bank.com from "Honest CA".
	real := meta("CN=Honest CA,O=Honest", "CN=www.bank.com", "www.bank.com")
	if _, err := ct.AddChain(certmodel.Chain{real}, at.AddDate(0, -1, 0)); err != nil {
		t.Fatal(err)
	}

	// Observed: same domain but issuer is a middlebox.
	observed := meta("CN=Zscaler Intermediate Root CA,O=Zscaler Inc.", "CN=www.bank.com", "www.bank.com")
	if v := d.Examine(observed, "www.bank.com", at); v != IssuerMismatch {
		t.Errorf("verdict = %v, want issuer-mismatch", v)
	}

	// Observed issuer matching CT: not interception (a non-public issuer
	// that properly CT-logs, e.g. a government sub-CA).
	if v := d.Examine(real, "www.bank.com", at); v != IssuerMatches {
		t.Errorf("verdict = %v, want issuer-matches", v)
	}
}

func TestExamineMidpointFallback(t *testing.T) {
	d, ct := testDetector(t)
	// CT entry valid only in an earlier window that still overlaps the
	// observed cert's midpoint.
	old := &certmodel.Meta{
		FP:        "Fold",
		Issuer:    dn.MustParse("CN=Honest CA"),
		Subject:   dn.MustParse("CN=shift.example.com"),
		NotBefore: at.AddDate(0, -3, 0),
		NotAfter:  at.AddDate(0, 3, 0),
		SAN:       []string{"shift.example.com"},
	}
	ct.AddChain(certmodel.Chain{old}, at.AddDate(0, -3, 0))

	observed := &certmodel.Meta{
		FP:        "Fobs",
		Issuer:    dn.MustParse("CN=Proxy CA"),
		Subject:   dn.MustParse("CN=shift.example.com"),
		NotBefore: at.AddDate(0, -2, 0),
		NotAfter:  at.AddDate(0, 4, 0),
	}
	// At the observation instant "at", CT has a record (old is valid), so
	// the primary path applies; push observation beyond old's validity to
	// force the midpoint fallback.
	later := at.AddDate(0, 6, 0)
	if v := d.Examine(observed, "shift.example.com", later); v != IssuerMismatch {
		t.Errorf("verdict = %v, want issuer-mismatch via midpoint fallback", v)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	z := &Issuer{DN: dn.MustParse("CN=Zscaler Intermediate Root CA,O=Zscaler Inc."), Name: "Zscaler", Category: CategorySecurityNetwork}
	r.Add(z)
	r.Add(&Issuer{DN: dn.MustParse("CN=FreddieMac Proxy,O=Freddie Mac"), Name: "Freddie Mac", Category: CategoryBusinessCorporate})
	if r.Len() != 2 {
		t.Errorf("Len = %d", r.Len())
	}
	got, ok := r.Lookup(dn.MustParse("CN=Zscaler Intermediate Root CA,O=Zscaler Inc."))
	if !ok || got.Name != "Zscaler" {
		t.Errorf("Lookup = %+v, %v", got, ok)
	}
	if _, ok := r.Lookup(dn.MustParse("CN=Unknown")); ok {
		t.Error("unknown DN must miss")
	}
	if len(r.All()) != 2 {
		t.Error("All must return every issuer")
	}
	// Overwrite.
	r.Add(&Issuer{DN: z.DN, Name: "Zscaler Inc", Category: CategorySecurityNetwork})
	if r.Len() != 2 {
		t.Error("re-adding same DN must not grow the registry")
	}
}

func TestCategoriesOrder(t *testing.T) {
	if len(Categories) != 6 || Categories[0] != CategorySecurityNetwork || Categories[5] != CategoryOther {
		t.Errorf("Categories = %v", Categories)
	}
}

func TestVerdictString(t *testing.T) {
	for _, v := range []Verdict{NotCandidate, NoCTRecord, IssuerMatches, IssuerMismatch, NoSNI, Verdict(42)} {
		if v.String() == "" {
			t.Errorf("Verdict %d has empty String", int(v))
		}
	}
}

// TestAppendixBFalseClaimScenario documents the Appendix B scenario: a
// self-signed certificate falsely claiming a well-known domain. The CT
// cross-reference flags it the same way it flags middleboxes — CT records a
// different issuer for the domain.
func TestAppendixBFalseClaimScenario(t *testing.T) {
	d, ct := testDetector(t)
	real := meta("CN=Honest CA,O=Honest", "CN=www.popular.example", "www.popular.example")
	if _, err := ct.AddChain(certmodel.Chain{real}, at.AddDate(0, -1, 0)); err != nil {
		t.Fatal(err)
	}
	// The attacker's self-signed forgery: issuer == subject == the domain.
	forged := meta("CN=www.popular.example", "CN=www.popular.example", "www.popular.example")
	if v := d.Examine(forged, "www.popular.example", at); v != IssuerMismatch {
		t.Errorf("forged self-signed cert verdict = %v, want issuer-mismatch", v)
	}
}
