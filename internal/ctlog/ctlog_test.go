package ctlog

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"certchains/internal/certmodel"
	"certchains/internal/dn"
	"certchains/internal/merkle"
)

var t0 = time.Date(2020, 9, 1, 0, 0, 0, 0, time.UTC)

func mkCert(issuer, subject string, sans ...string) *certmodel.Meta {
	iss := dn.MustParse(issuer)
	sub := dn.MustParse(subject)
	nb := t0.AddDate(0, -1, 0)
	na := t0.AddDate(1, 0, 0)
	return &certmodel.Meta{
		FP:        certmodel.SyntheticFingerprint(iss, sub, fmt.Sprintf("%x", len(sans)+len(subject)), nb, na),
		Issuer:    iss,
		Subject:   sub,
		NotBefore: nb,
		NotAfter:  na,
		SAN:       sans,
	}
}

func newLog(t *testing.T) *Log {
	t.Helper()
	l, err := New("test-log", 1)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestAddChainAndSCT(t *testing.T) {
	l := newLog(t)
	leaf := mkCert("CN=Issuing CA", "CN=site.example.com", "site.example.com")
	ca := mkCert("CN=Root", "CN=Issuing CA")
	sct, err := l.AddChain(certmodel.Chain{leaf, ca}, t0)
	if err != nil {
		t.Fatalf("AddChain: %v", err)
	}
	if sct.LeafIndex != 0 {
		t.Errorf("leaf index = %d, want 0", sct.LeafIndex)
	}
	if !l.VerifySCT(sct, leaf) {
		t.Error("SCT must verify against the logged cert")
	}
	other := mkCert("CN=Issuing CA", "CN=other.example.com")
	if l.VerifySCT(sct, other) {
		t.Error("SCT must not verify against a different cert")
	}
	if !l.Contains(leaf.FP) {
		t.Error("Contains must report logged leaf")
	}
	if l.Contains(ca.FP) {
		t.Error("chain certificates are not logged leaves")
	}
	if l.Size() != 1 {
		t.Errorf("Size = %d, want 1", l.Size())
	}
	es := l.GetEntries(0, 10)
	if len(es) != 1 || len(es[0].ChainFPs) != 1 || es[0].ChainFPs[0] != ca.FP {
		t.Error("entry must record the submitted issuing chain")
	}
}

func TestAddChainDuplicate(t *testing.T) {
	l := newLog(t)
	leaf := mkCert("CN=CA", "CN=dup.example.com")
	if _, err := l.AddChain(certmodel.Chain{leaf}, t0); err != nil {
		t.Fatal(err)
	}
	sct, err := l.AddChain(certmodel.Chain{leaf}, t0.Add(time.Hour))
	if !errors.Is(err, ErrAlreadyLogged) {
		t.Fatalf("duplicate err = %v, want ErrAlreadyLogged", err)
	}
	if sct == nil || sct.LeafIndex != 0 {
		t.Error("duplicate must return the original entry's SCT")
	}
	if l.Size() != 1 {
		t.Errorf("Size = %d after duplicate, want 1", l.Size())
	}
}

func TestAddChainEmpty(t *testing.T) {
	l := newLog(t)
	if _, err := l.AddChain(nil, t0); err == nil {
		t.Error("empty chain must be rejected")
	}
}

// TestAppendMatchesAddChain: Append is AddChain without the signature — the
// same chains give the same tree, entries and query answers — and a leaf
// first appended still gets a valid SCT from AddChain.
func TestAppendMatchesAddChain(t *testing.T) {
	root := mkCert("CN=Root", "CN=Issuing CA")
	var chains []certmodel.Chain
	for i := 0; i < 12; i++ {
		iss := fmt.Sprintf("CN=CA %d", i%3)
		host := fmt.Sprintf("h%d.example.com", i)
		chains = append(chains, certmodel.Chain{mkCert(iss, "CN="+host, host, "*.example.com"), root})
	}
	signed, appended := newLog(t), newLog(t)
	for i, ch := range chains {
		at := t0.Add(time.Duration(i) * time.Minute)
		sct, err := signed.AddChain(ch, at)
		if err != nil {
			t.Fatal(err)
		}
		e, err := appended.Append(ch, at)
		if err != nil {
			t.Fatal(err)
		}
		if e.Index != sct.LeafIndex || !e.Timestamp.Equal(sct.Timestamp) {
			t.Errorf("chain %d: entry %d@%v, SCT %d@%v", i, e.Index, e.Timestamp, sct.LeafIndex, sct.Timestamp)
		}
	}
	if a, b := signed.TreeHead(t0).RootHash, appended.TreeHead(t0).RootHash; a != b {
		t.Errorf("roots differ: %x vs %x", a, b)
	}
	es, ea := signed.GetEntries(0, 100), appended.GetEntries(0, 100)
	if !reflect.DeepEqual(es, ea) {
		t.Error("entries differ between AddChain and Append")
	}
	indexes := func(es []*Entry) []uint64 {
		var out []uint64
		for _, e := range es {
			out = append(out, e.Index)
		}
		return out
	}
	for _, d := range []string{"h3.example.com", "other.example.com", "absent.example.net"} {
		if a, b := indexes(signed.QueryDomain(d)), indexes(appended.QueryDomain(d)); !reflect.DeepEqual(a, b) {
			t.Errorf("QueryDomain(%s): %v vs %v", d, a, b)
		}
		if a, b := signed.IssuersFor(d, t0), appended.IssuersFor(d, t0); !reflect.DeepEqual(a, b) {
			t.Errorf("IssuersFor(%s): %v vs %v", d, a, b)
		}
	}
	for i := 0; i < 3; i++ {
		iss := dn.MustParse(fmt.Sprintf("CN=CA %d", i))
		if a, b := indexes(signed.EntriesByIssuer(iss)), indexes(appended.EntriesByIssuer(iss)); !reflect.DeepEqual(a, b) {
			t.Errorf("EntriesByIssuer(%v): %v vs %v", iss, a, b)
		}
	}

	// A duplicate through Append returns the first entry.
	first := ea[4]
	e, err := appended.Append(chains[4], t0.AddDate(0, 1, 0))
	if !errors.Is(err, ErrAlreadyLogged) || e != first {
		t.Errorf("duplicate Append = %v, %v; want the first entry and ErrAlreadyLogged", e, err)
	}
	// AddChain on an appended leaf signs the original index and timestamp.
	sct, err := appended.AddChain(chains[4], t0.AddDate(0, 2, 0))
	if !errors.Is(err, ErrAlreadyLogged) {
		t.Fatalf("AddChain after Append: err = %v, want ErrAlreadyLogged", err)
	}
	if sct.LeafIndex != first.Index || !sct.Timestamp.Equal(first.Timestamp) || !appended.VerifySCT(sct, chains[4][0]) {
		t.Errorf("SCT %d@%v (verifies: %v), want a valid SCT for %d@%v",
			sct.LeafIndex, sct.Timestamp, appended.VerifySCT(sct, chains[4][0]), first.Index, first.Timestamp)
	}
	if appended.Size() != uint64(len(chains)) {
		t.Errorf("Size = %d after duplicates, want %d", appended.Size(), len(chains))
	}
	if _, err := appended.Append(nil, t0); err == nil {
		t.Error("empty chain must be rejected")
	}
}

func TestTreeHeadAndProofs(t *testing.T) {
	l := newLog(t)
	for i := 0; i < 20; i++ {
		leaf := mkCert("CN=CA", fmt.Sprintf("CN=host%02d.example.com", i))
		if _, err := l.AddChain(certmodel.Chain{leaf}, t0.Add(time.Duration(i)*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	sth := l.TreeHead(t0.Add(time.Hour))
	if sth.TreeSize != 20 {
		t.Errorf("STH size = %d, want 20", sth.TreeSize)
	}
	if !l.VerifySTH(sth) {
		t.Error("STH signature must verify")
	}
	bad := *sth
	bad.TreeSize = 21
	if l.VerifySTH(&bad) {
		t.Error("tampered STH must not verify")
	}

	for _, idx := range []uint64{0, 7, 19} {
		proof, err := l.InclusionProof(idx, sth.TreeSize)
		if err != nil {
			t.Fatalf("InclusionProof(%d): %v", idx, err)
		}
		e := l.GetEntries(idx, idx+1)[0]
		if !merkle.VerifyInclusion(LeafHashOf(e), idx, sth.TreeSize, proof, sth.RootHash) {
			t.Errorf("inclusion proof for entry %d failed", idx)
		}
	}

	cp, err := l.ConsistencyProof(5, 20)
	if err != nil {
		t.Fatal(err)
	}
	sth5Root := func() merkle.Hash {
		// Rebuild the size-5 root from entries to cross-check consistency.
		tr := merkle.New()
		for _, e := range l.GetEntries(0, 5) {
			tr.AppendHash(LeafHashOf(e))
		}
		return tr.Root()
	}()
	if !merkle.VerifyConsistency(5, 20, sth5Root, sth.RootHash, cp) {
		t.Error("consistency proof failed")
	}
}

func TestQueryDomain(t *testing.T) {
	l := newLog(t)
	a := mkCert("CN=CA 1", "CN=www.example.com", "www.example.com", "example.com")
	b := mkCert("CN=CA 2", "CN=*.wild.example.org", "*.wild.example.org")
	c := mkCert("CN=CA 3", "CN=unrelated.net")
	for _, m := range []*certmodel.Meta{a, b, c} {
		if _, err := l.AddChain(certmodel.Chain{m}, t0); err != nil {
			t.Fatal(err)
		}
	}
	if es := l.QueryDomain("www.example.com"); len(es) != 1 || es[0].Cert.FP != a.FP {
		t.Errorf("QueryDomain(www.example.com) = %d entries", len(es))
	}
	if es := l.QueryDomain("example.com"); len(es) != 1 {
		t.Errorf("SAN query returned %d entries", len(es))
	}
	if es := l.QueryDomain("host.wild.example.org"); len(es) != 1 || es[0].Cert.FP != b.FP {
		t.Errorf("wildcard query returned %d entries", len(es))
	}
	if es := l.QueryDomain("deep.host.wild.example.org"); len(es) != 0 {
		t.Errorf("wildcard must cover one label only, got %d", len(es))
	}
	if es := l.QueryDomain("WWW.EXAMPLE.COM"); len(es) != 1 {
		t.Errorf("query must be case-insensitive, got %d", len(es))
	}
	if es := l.QueryDomain("absent.example.net"); len(es) != 0 {
		t.Errorf("unknown domain returned %d entries", len(es))
	}
}

func TestIssuersFor(t *testing.T) {
	l := newLog(t)
	legit := mkCert("CN=Public CA X", "CN=bank.example.com", "bank.example.com")
	if _, err := l.AddChain(certmodel.Chain{legit}, t0); err != nil {
		t.Fatal(err)
	}
	issuers := l.IssuersFor("bank.example.com", t0)
	if len(issuers) != 1 || issuers[0].CommonName() != "Public CA X" {
		t.Fatalf("IssuersFor = %v", issuers)
	}
	// Outside the validity window the set is empty.
	if got := l.IssuersFor("bank.example.com", t0.AddDate(3, 0, 0)); len(got) != 0 {
		t.Errorf("expired window returned %d issuers", len(got))
	}
	// The interception test: observed issuer differs from CT's record.
	observed := dn.MustParse("CN=Corp TLS Inspection CA")
	match := false
	for _, d := range issuers {
		if d.Equal(observed) {
			match = true
		}
	}
	if match {
		t.Error("interception issuer must not match CT record")
	}
}

func TestEntriesByIssuer(t *testing.T) {
	l := newLog(t)
	for i := 0; i < 3; i++ {
		m := mkCert("CN=Shared CA", fmt.Sprintf("CN=s%d.example.com", i))
		l.AddChain(certmodel.Chain{m}, t0)
	}
	l.AddChain(certmodel.Chain{mkCert("CN=Other CA", "CN=x.example.com")}, t0)
	if es := l.EntriesByIssuer(dn.MustParse("CN=Shared CA")); len(es) != 3 {
		t.Errorf("EntriesByIssuer = %d, want 3", len(es))
	}
}

func TestGetEntriesBounds(t *testing.T) {
	l := newLog(t)
	for i := 0; i < 5; i++ {
		l.AddChain(certmodel.Chain{mkCert("CN=CA", fmt.Sprintf("CN=e%d", i))}, t0)
	}
	if es := l.GetEntries(10, 20); es != nil {
		t.Error("start beyond size must return nil")
	}
	if es := l.GetEntries(3, 100); len(es) != 2 {
		t.Errorf("clamped range returned %d", len(es))
	}
	if es := l.GetEntries(0, 5); len(es) != 5 {
		t.Errorf("full range returned %d", len(es))
	}
}

func TestLogIdentity(t *testing.T) {
	a, _ := New("a", 1)
	b, _ := New("b", 2)
	if a.ID() == b.ID() {
		t.Error("different seeds must give different log IDs")
	}
	c, _ := New("c", 1)
	if a.ID() != c.ID() {
		t.Error("same seed must give the same log ID")
	}
	if a.Name() != "a" {
		t.Errorf("Name = %q", a.Name())
	}
	if len(a.PublicKey()) == 0 {
		t.Error("PublicKey must be exposed")
	}
}

func TestConcurrentAddAndQuery(t *testing.T) {
	l := newLog(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				m := mkCert("CN=CA", fmt.Sprintf("CN=c%d-%d.example.com", g, i))
				l.AddChain(certmodel.Chain{m}, t0)
				l.QueryDomain(fmt.Sprintf("c%d-%d.example.com", g, i))
				l.Size()
			}
		}(g)
	}
	wg.Wait()
	if l.Size() != 100 {
		t.Errorf("Size = %d, want 100", l.Size())
	}
	// All entries must have verifiable inclusion in the final tree.
	sth := l.TreeHead(t0)
	for _, e := range l.GetEntries(0, 100) {
		proof, err := l.InclusionProof(e.Index, sth.TreeSize)
		if err != nil {
			t.Fatal(err)
		}
		if !merkle.VerifyInclusion(LeafHashOf(e), e.Index, sth.TreeSize, proof, sth.RootHash) {
			t.Fatalf("inclusion failed for concurrent entry %d", e.Index)
		}
	}
}

func BenchmarkAddChain(b *testing.B) {
	l, _ := New("bench", 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := mkCert("CN=CA", fmt.Sprintf("CN=b%d.example.com", i))
		l.AddChain(certmodel.Chain{m}, t0)
	}
}

func BenchmarkQueryDomain(b *testing.B) {
	l, _ := New("bench", 3)
	for i := 0; i < 10000; i++ {
		m := mkCert("CN=CA", fmt.Sprintf("CN=q%d.example.com", i))
		l.AddChain(certmodel.Chain{m}, t0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.QueryDomain(fmt.Sprintf("q%d.example.com", i%10000))
	}
}
