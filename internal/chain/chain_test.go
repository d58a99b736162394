package chain

import (
	"fmt"
	"testing"
	"time"

	"certchains/internal/certmodel"
	"certchains/internal/dn"
	"certchains/internal/trustdb"
)

var obs = time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC)

// cert builds a Meta with explicit basic constraints.
func cert(issuer, subject string, bc certmodel.BasicConstraints) *certmodel.Meta {
	iss := dn.MustParse(issuer)
	sub := dn.MustParse(subject)
	nb := obs.AddDate(-1, 0, 0)
	na := obs.AddDate(1, 0, 0)
	return &certmodel.Meta{
		FP:        certmodel.SyntheticFingerprint(iss, sub, "aa", nb, na),
		Issuer:    iss,
		Subject:   sub,
		SerialHex: "aa",
		NotBefore: nb,
		NotAfter:  na,
		BC:        bc,
	}
}

// testEnv builds a trust DB with one public root + intermediate and a
// classifier aware of one interception issuer.
func testEnv(t *testing.T) (*trustdb.DB, *Classifier) {
	t.Helper()
	db := trustdb.New()
	root := cert("CN=Public Root G1,O=TrustCo", "CN=Public Root G1,O=TrustCo", certmodel.BCTrue)
	db.AddRoot(trustdb.StoreMozilla, root)
	inter := cert("CN=Public Root G1,O=TrustCo", "CN=TrustCo Issuing CA,O=TrustCo", certmodel.BCTrue)
	if err := db.AddCCADBIntermediate(inter); err != nil {
		t.Fatal(err)
	}
	cl := NewClassifier(db)
	cl.AddInterceptionIssuer(dn.MustParse("CN=Zscaler Intermediate CA,O=Zscaler Inc."))
	return db, cl
}

// Standard building blocks shared by tests.
func publicChain() certmodel.Chain {
	return certmodel.Chain{
		cert("CN=TrustCo Issuing CA,O=TrustCo", "CN=www.shop.com", certmodel.BCFalse),
		cert("CN=Public Root G1,O=TrustCo", "CN=TrustCo Issuing CA,O=TrustCo", certmodel.BCTrue),
	}
}

func privateChain() certmodel.Chain {
	return certmodel.Chain{
		cert("CN=Corp CA,O=Corp", "CN=intranet.corp", certmodel.BCAbsent),
		cert("CN=Corp Root,O=Corp", "CN=Corp CA,O=Corp", certmodel.BCAbsent),
		cert("CN=Corp Root,O=Corp", "CN=Corp Root,O=Corp", certmodel.BCAbsent),
	}
}

func TestCategorize(t *testing.T) {
	_, cl := testEnv(t)

	if got := cl.Categorize(publicChain()); got != PublicDBOnly {
		t.Errorf("public chain categorized %v", got)
	}
	if got := cl.Categorize(privateChain()); got != NonPublicDBOnly {
		t.Errorf("private chain categorized %v", got)
	}
	hybrid := append(publicChain(), cert("CN=Random Box", "CN=Random Box", certmodel.BCAbsent))
	if got := cl.Categorize(hybrid); got != Hybrid {
		t.Errorf("hybrid chain categorized %v", got)
	}
	intercept := certmodel.Chain{
		cert("CN=Zscaler Intermediate CA,O=Zscaler Inc.", "CN=www.bank.com", certmodel.BCFalse),
		cert("CN=Zscaler Root CA,O=Zscaler Inc.", "CN=Zscaler Intermediate CA,O=Zscaler Inc.", certmodel.BCTrue),
	}
	if got := cl.Categorize(intercept); got != Interception {
		t.Errorf("interception chain categorized %v", got)
	}
	if got := cl.Categorize(nil); got != NonPublicDBOnly {
		t.Errorf("empty chain categorized %v", got)
	}
	if cl.InterceptionIssuerCount() != 1 {
		t.Errorf("interception issuers = %d", cl.InterceptionIssuerCount())
	}
	if !cl.IsInterceptionIssuer(dn.MustParse("CN=Zscaler Intermediate CA,O=Zscaler Inc.")) {
		t.Error("IsInterceptionIssuer must find registered DN")
	}
}

func TestAnalyzeCompletePath(t *testing.T) {
	_, cl := testEnv(t)
	a := cl.Analyze(publicChain())
	if a.Verdict != VerdictCompletePath {
		t.Fatalf("verdict = %v, want complete", a.Verdict)
	}
	if a.MismatchRatio != 0 {
		t.Errorf("mismatch ratio = %v", a.MismatchRatio)
	}
	if len(a.Runs) != 1 || a.Runs[0].Len() != 2 || !a.Runs[0].HasLeaf {
		t.Errorf("runs = %+v", a.Runs)
	}
	if a.Complete == nil || len(a.Unnecessary) != 0 {
		t.Errorf("complete=%v unnecessary=%v", a.Complete, a.Unnecessary)
	}
	if a.LeafOfComplete().Subject.CommonName() != "www.shop.com" {
		t.Error("leaf of complete path wrong")
	}
	if a.HasExpiredLeaf(obs) {
		t.Error("leaf should not be expired")
	}
	if !a.HasExpiredLeaf(obs.AddDate(3, 0, 0)) {
		t.Error("leaf should be expired 3y later")
	}
}

// TestFigure3Example reproduces the paper's Figure 3 bottom chain: a
// partially matched path (no leaf), a complete matched path, and an extra
// leaf — five certificates, four links, two mismatches, ratio 0.4.
func TestFigure3Example(t *testing.T) {
	_, cl := testEnv(t)
	ch := certmodel.Chain{
		// Extra leaf whose issuer does not match the next subject.
		cert("CN=Stale CA,O=Old", "CN=old.site.com", certmodel.BCFalse),
		// Complete matched path: leaf -> issuing CA.
		cert("CN=TrustCo Issuing CA,O=TrustCo", "CN=www.site.com", certmodel.BCFalse),
		cert("CN=Public Root G1,O=TrustCo", "CN=TrustCo Issuing CA,O=TrustCo", certmodel.BCTrue),
		// Partial path without a leaf: two CAs that chain to each other.
		cert("CN=Corp Root,O=Corp", "CN=Corp Sub CA,O=Corp", certmodel.BCTrue),
		cert("CN=Corp Root,O=Corp", "CN=Corp Root,O=Corp", certmodel.BCTrue),
	}
	a := cl.Analyze(ch)
	if len(a.Links) != 4 {
		t.Fatalf("links = %d", len(a.Links))
	}
	wantLinks := []LinkState{LinkMismatch, LinkMatch, LinkMismatch, LinkMatch}
	for i, w := range wantLinks {
		if a.Links[i] != w {
			t.Errorf("link %d = %v, want %v", i, a.Links[i], w)
		}
	}
	if a.MismatchRatio != 0.5 {
		t.Errorf("mismatch ratio = %v, want 0.5", a.MismatchRatio)
	}
	if a.Verdict != VerdictContainsPath {
		t.Errorf("verdict = %v, want contains", a.Verdict)
	}
	if a.Complete == nil || a.Complete.Start != 1 || a.Complete.End != 2 {
		t.Fatalf("complete run = %+v", a.Complete)
	}
	if len(a.Unnecessary) != 3 {
		t.Errorf("unnecessary = %v, want 3 certs", a.Unnecessary)
	}
}

// TestFigure3Ratio04 builds the exact ratio-0.4 variant: 5 certs where only
// 2 of 5... the figure counts 2 mismatches of 5 pairs including the leaf
// pair. With 6 certs and 5 links, 2 mismatches give 0.4.
func TestFigure3Ratio04(t *testing.T) {
	_, cl := testEnv(t)
	ch := certmodel.Chain{
		cert("CN=Stale CA", "CN=extra-leaf.site.com", certmodel.BCFalse),
		cert("CN=TrustCo Issuing CA,O=TrustCo", "CN=www.site.com", certmodel.BCFalse),
		cert("CN=Public Root G1,O=TrustCo", "CN=TrustCo Issuing CA,O=TrustCo", certmodel.BCTrue),
		cert("CN=Public Root G1,O=TrustCo", "CN=Public Root G1,O=TrustCo", certmodel.BCTrue),
		cert("CN=Corp Root,O=Corp", "CN=Corp Sub CA,O=Corp", certmodel.BCTrue),
		cert("CN=Corp Root,O=Corp", "CN=Corp Root,O=Corp", certmodel.BCTrue),
	}
	a := cl.Analyze(ch)
	if a.MismatchRatio != 0.4 {
		t.Errorf("mismatch ratio = %v, want 0.4", a.MismatchRatio)
	}
	if a.Complete == nil || a.Complete.Len() != 3 {
		t.Errorf("complete run = %+v, want len 3", a.Complete)
	}
}

func TestAnalyzeSingleCert(t *testing.T) {
	_, cl := testEnv(t)
	a := cl.Analyze(certmodel.Chain{cert("CN=s", "CN=s", certmodel.BCAbsent)})
	if a.Verdict != VerdictSingleCert || a.MatchedVerdict != VerdictSingleCert {
		t.Errorf("verdicts = %v/%v", a.Verdict, a.MatchedVerdict)
	}
	if a.MismatchRatio != 0 || len(a.Links) != 0 {
		t.Error("single cert chain has no links")
	}
}

func TestAnalyzeNoPath(t *testing.T) {
	_, cl := testEnv(t)
	ch := certmodel.Chain{
		cert("CN=A", "CN=a.com", certmodel.BCFalse),
		cert("CN=B", "CN=bee", certmodel.BCTrue),
		cert("CN=C", "CN=sea", certmodel.BCTrue),
	}
	a := cl.Analyze(ch)
	if a.Verdict != VerdictNoPath || a.MatchedVerdict != VerdictNoPath {
		t.Errorf("verdicts = %v/%v", a.Verdict, a.MatchedVerdict)
	}
	if a.MismatchRatio != 1.0 {
		t.Errorf("ratio = %v, want 1.0", a.MismatchRatio)
	}
	if a.Complete != nil {
		t.Error("no-path chain must have no complete run")
	}
	if len(a.Runs) != 3 {
		t.Errorf("runs = %d, want 3 singleton runs", len(a.Runs))
	}
}

func TestMatchedVerdictWithoutLeaf(t *testing.T) {
	_, cl := testEnv(t)
	// Two CA certs chaining correctly: no leaf, so the hybrid (leaf-aware)
	// verdict is NoPath but the §4.3 matched verdict is CompletePath.
	ch := certmodel.Chain{
		cert("CN=Corp Root,O=Corp", "CN=Corp Sub CA,O=Corp", certmodel.BCTrue),
		cert("CN=Corp Root,O=Corp", "CN=Corp Root,O=Corp", certmodel.BCTrue),
	}
	a := cl.Analyze(ch)
	if a.Verdict != VerdictNoPath {
		t.Errorf("leaf-aware verdict = %v, want no-path", a.Verdict)
	}
	if a.MatchedVerdict != VerdictCompletePath {
		t.Errorf("matched verdict = %v, want complete", a.MatchedVerdict)
	}
}

func TestCrossSignExemption(t *testing.T) {
	_, cl := testEnv(t)
	// Leaf names issuer "Sectigo RSA CA" but the delivered parent is the
	// cross-signed variant "AAA Certificate Services".
	ch := certmodel.Chain{
		cert("CN=Sectigo RSA CA,O=Sectigo", "CN=www.x.com", certmodel.BCFalse),
		cert("CN=AAA Certificate Services,O=Comodo", "CN=AAA Certificate Services,O=Comodo", certmodel.BCTrue),
	}
	a := cl.Analyze(ch)
	if a.Links[0] != LinkMismatch {
		t.Fatalf("without registry link = %v", a.Links[0])
	}
	cl.CrossSigns.Add(dn.MustParse("CN=Sectigo RSA CA,O=Sectigo"), dn.MustParse("CN=AAA Certificate Services,O=Comodo"))
	if cl.CrossSigns.Len() != 1 {
		t.Errorf("registry len = %d", cl.CrossSigns.Len())
	}
	a = cl.Analyze(ch)
	if a.Links[0] != LinkCrossSign {
		t.Errorf("with registry link = %v, want cross-sign", a.Links[0])
	}
	if !a.Links[0].Matched() {
		t.Error("cross-sign links must count as matched")
	}
	if a.MismatchRatio != 0 {
		t.Errorf("ratio = %v, cross-sign must not count as mismatch", a.MismatchRatio)
	}
	if a.Verdict != VerdictCompletePath {
		t.Errorf("verdict = %v", a.Verdict)
	}
	// Direction matters.
	if cl.CrossSigns.Exempt(dn.MustParse("CN=AAA Certificate Services,O=Comodo"), dn.MustParse("CN=Sectigo RSA CA,O=Sectigo")) {
		t.Error("registry must be directional")
	}
	var nilReg *CrossSignRegistry
	if nilReg.Exempt(dn.MustParse("CN=a"), dn.MustParse("CN=b")) {
		t.Error("nil registry exempts nothing")
	}
}

func TestIsLeaf(t *testing.T) {
	ch := certmodel.Chain{
		cert("CN=CA", "CN=leaf.com", certmodel.BCFalse),
		cert("CN=Root", "CN=CA", certmodel.BCTrue),
		cert("CN=Root", "CN=Root", certmodel.BCAbsent),
		cert("CN=Someone", "CN=standalone.com", certmodel.BCAbsent),
	}
	if !keysOf(ch).isLeaf(ch, 0) {
		t.Error("BC=FALSE cert is a leaf")
	}
	if keysOf(ch).isLeaf(ch, 1) {
		t.Error("BC=TRUE cert is not a leaf")
	}
	if keysOf(ch).isLeaf(ch, 2) {
		t.Error("self-signed BC-absent cert acting as issuer is not a leaf")
	}
	if !keysOf(ch).isLeaf(ch, 3) {
		t.Error("BC-absent non-issuing cert is structurally a leaf")
	}
}

func TestIsLeafPosition(t *testing.T) {
	leafFirst := certmodel.Chain{
		cert("CN=CA", "CN=leaf.com", certmodel.BCFalse),
		cert("CN=Root", "CN=CA", certmodel.BCTrue),
	}
	if !IsLeafPosition(leafFirst, 0) {
		t.Error("position 0 of a leaf-first delivery is the leaf position")
	}
	if IsLeafPosition(leafFirst, 1) {
		t.Error("position 1 is never the leaf position")
	}

	// Root-first misdelivery: the first certificate issues another member,
	// so no position is treated as the leaf.
	rootFirst := certmodel.Chain{
		cert("CN=Root", "CN=CA", certmodel.BCTrue),
		cert("CN=CA", "CN=leaf.com", certmodel.BCFalse),
	}
	if IsLeafPosition(rootFirst, 0) {
		t.Error("issuing first certificate must not count as leaf position")
	}
	if IsLeafPosition(rootFirst, 1) {
		t.Error("non-zero positions are never the leaf position")
	}

	// Single-certificate deliveries always serve position 0 as the leaf,
	// even when self-signed or asserting CA=TRUE (that is what lints flag).
	if !IsLeafPosition(certmodel.Chain{cert("CN=self", "CN=self", certmodel.BCTrue)}, 0) {
		t.Error("single self-signed delivery occupies the leaf position")
	}

	// A self-signed first certificate in a longer chain discounts its own
	// issuer slot: it stays the leaf position unless something *else* names
	// it as issuer.
	selfFirst := certmodel.Chain{
		cert("CN=standalone.corp", "CN=standalone.corp", certmodel.BCAbsent),
		cert("CN=Other Root", "CN=Other CA", certmodel.BCTrue),
	}
	if !IsLeafPosition(selfFirst, 0) {
		t.Error("self-signed first cert issuing nothing else is the leaf position")
	}
	issuedElsewhere := certmodel.Chain{
		cert("CN=Corp CA", "CN=Corp CA", certmodel.BCAbsent),
		cert("CN=Corp CA", "CN=device.corp", certmodel.BCFalse),
	}
	if IsLeafPosition(issuedElsewhere, 0) {
		t.Error("self-signed first cert that issues a later member is root-first")
	}

	if IsLeafPosition(nil, 0) {
		t.Error("empty chain has no leaf position")
	}
	if IsLeafPosition(leafFirst, -1) {
		t.Error("negative positions are never the leaf position")
	}
}

// TestIsLeafPositionAllocs: with every member's DN keys already cached, the
// leaf-position test allocates nothing — lint consults it per check.
func TestIsLeafPositionAllocs(t *testing.T) {
	ch := certmodel.Chain{
		cert("CN=CA", "CN=leaf.com", certmodel.BCFalse),
		cert("CN=Root", "CN=CA", certmodel.BCTrue),
		cert("CN=Root", "CN=Root", certmodel.BCTrue),
	}
	for _, m := range ch {
		m.IssuerKey()
		m.SubjectKey()
	}
	allocs := testing.AllocsPerRun(1000, func() { _ = IsLeafPosition(ch, 0) })
	if allocs != 0 {
		t.Fatalf("IsLeafPosition with warm keys allocated %.1f allocs/op, want 0", allocs)
	}
}

func TestAnchoredToPublicRoot(t *testing.T) {
	db, cl := testEnv(t)

	// Root-omitted delivery: top cert's issuer is the stored root.
	a := cl.Analyze(publicChain())
	if !a.AnchoredToPublicRoot(db) {
		t.Error("chain ending at stored-root issuer must be anchored")
	}

	// Root included: top cert is the stored root itself.
	withRoot := append(publicChain(), cert("CN=Public Root G1,O=TrustCo", "CN=Public Root G1,O=TrustCo", certmodel.BCTrue))
	a = cl.Analyze(withRoot)
	if !a.AnchoredToPublicRoot(db) {
		t.Error("chain including stored root must be anchored")
	}

	// Private chain is not anchored.
	a = cl.Analyze(privateChain())
	if a.AnchoredToPublicRoot(db) {
		t.Error("private chain must not be anchored")
	}

	// Single self-signed cert.
	a = cl.Analyze(certmodel.Chain{cert("CN=x", "CN=x", certmodel.BCAbsent)})
	if a.AnchoredToPublicRoot(db) {
		t.Error("self-signed singleton must not be anchored")
	}
}

func TestStringers(t *testing.T) {
	for _, s := range []fmt.Stringer{
		PublicDBOnly, NonPublicDBOnly, Hybrid, Interception, Category(99),
		LinkMatch, LinkMismatch, LinkCrossSign, LinkState(99),
		VerdictSingleCert, VerdictCompletePath, VerdictContainsPath, VerdictNoPath, Verdict(99),
		HybridCompleteNonPubToPub, HybridCompletePubToPrv, HybridCompleteOther,
		HybridContainsComplete, HybridNoComplete, HybridCategory(99),
		NoPathSelfSignedLeafMismatch, NoPathSelfSignedLeafValidSub, NoPathAllMismatched,
		NoPathPartial, NoPathPrivateRootAppended, NoPathPrivateRootMismatch, NoPathCategory(99),
	} {
		if s.String() == "" {
			t.Errorf("%T has empty String()", s)
		}
	}
}
