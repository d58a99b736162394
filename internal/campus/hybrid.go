package campus

import (
	"fmt"
	"time"

	"certchains/internal/certmodel"
	"certchains/internal/chain"
	"certchains/internal/dn"
)

// Hybrid population absolutes (Tables 3, 6, 7 — these are structural
// constants of the paper, not scaled quantities).
const (
	hybridCompleteNonPubToPub = 26 // 16 government + 10 corporate (Table 6)
	hybridCompleteGovernment  = 16
	hybridCompletePubToPrv    = 10
	hybridContainsComplete    = 70
	hybridContainsFakeLE      = 14
	hybridNoPath              = 215

	hybridNoPathSelfSignedMismatch = 108
	hybridNoPathSelfSignedValidSub = 13
	hybridNoPathAllMismatched      = 61
	hybridNoPathPartial            = 27
	hybridNoPathRootAppended       = 5
	hybridNoPathRootMismatch       = 1

	// Connections: 38,085 on no-path chains, the rest of 78,260 elsewhere.
	hybridNoPathConns  = 38085
	hybridRestConns    = paperHybridConns - hybridNoPathConns
	hybridNoPathIPs    = 4987
	hybridServersMulti = 19 // servers presenting multiple distinct chains

	hybridEstComplete = 0.9756
	hybridEstContains = 0.9204
	hybridEstNoPath   = 0.5742
)

// generateHybrid emits exactly 321 hybrid chains with the paper's taxonomy.
func (s *Scenario) generateHybrid() {
	popAll := s.ipPool.take(paperHybridClientIPs)
	popNoPath := s.pickClientIPs(popAll, hybridNoPathIPs)

	nRest := hybridCompleteNonPubToPub + hybridCompletePubToPrv + hybridContainsComplete
	restConns := s.split(hybridRestConns, nRest)
	noPathConns := s.split(hybridNoPathConns, hybridNoPath)
	restIdx, noPathIdx := 0, 0
	emit := func(ch certmodel.Chain, domain string, est float64, noPath bool) *Observation {
		var conns int64
		var pop []string
		if noPath {
			conns = noPathConns[noPathIdx]
			noPathIdx++
			pop = popNoPath
		} else {
			conns = restConns[restIdx]
			restIdx++
			pop = popAll
		}
		first, last := s.window()
		o := &Observation{
			Chain:       ch,
			Category:    chain.Hybrid,
			ServerIP:    s.serverIP(),
			Port:        s.hybridPort(),
			Domain:      domain,
			Conns:       conns,
			Established: s.establishSplit(conns, est),
			ClientIPs:   s.pickClientIPs(pop, 1+s.rng.IntN(40)),
			First:       first,
			Last:        last,
		}
		s.Observations = append(s.Observations, o)
		s.hybridServers = append(s.hybridServers, o)
		return o
	}

	s.genHybridCompleteNonPubToPub(emit)
	s.genHybridCompletePubToPrv(emit)
	s.genHybridContains(emit)
	s.genHybridNoPath(emit)

	// 19 servers present multiple distinct hybrid chains: collapse pairs
	// onto shared server endpoints.
	for i := 0; i < hybridServersMulti; i++ {
		a := s.hybridServers[2*i]
		b := s.hybridServers[2*i+1]
		b.ServerIP = a.ServerIP
		b.Domain = a.Domain
	}
}

// hybridPort follows Table 4: 97.21% on 443.
var hybridPorts = weightedPorts{
	{443, 9721}, {8443, 136}, {8088, 122}, {25, 18}, {9191, 1},
}

func (s *Scenario) hybridPort() int {
	return hybridPorts.pick(s)
}

// genHybridCompleteNonPubToPub builds the 26 Table 6 chains: a non-public
// signing CA, itself certified by a public issuer, anchored to a public
// root; the leaves are CT-logged (§4.2 compliance finding). 3 carry expired
// leaves, the worst by more than five years.
func (s *Scenario) genHybridCompleteNonPubToPub(emit func(certmodel.Chain, string, float64, bool) *Observation) {
	type entity struct {
		signingCA dn.DN
		domain    string
		country   string
	}
	entities := make([]entity, 0, hybridCompleteNonPubToPub)
	// Government deployments (Korea, Brazil, USA — Table 6).
	govDefs := []struct{ ca, dom, c string }{
		{"Veterans Affairs CA B3", "portal.va.example.gov", "US"},
		{"GPKI Gov Korea CA", "minwon.korea.example.kr", "KR"},
		{"ICP-Brasil AC Final", "servicos.iti.example.br", "BR"},
	}
	for i := 0; i < hybridCompleteGovernment; i++ {
		d := govDefs[i%len(govDefs)]
		entities = append(entities, entity{
			signingCA: dnFor(fmt.Sprintf("%s %d", d.ca, i+1), "Government", d.c),
			domain:    fmt.Sprintf("svc%d.%s", i, d.dom),
			country:   d.c,
		})
	}
	// Corporate deployments (Symantec, SignKorea and others).
	corpDefs := []string{"Symantec Private SSL SHA1 CA", "SignKorea Private CA", "Corporate Private CA"}
	for i := hybridCompleteGovernment; i < hybridCompleteNonPubToPub; i++ {
		d := corpDefs[i%len(corpDefs)]
		entities = append(entities, entity{
			signingCA: dnFor(fmt.Sprintf("%s %d", d, i), "Enterprise", "US"),
			domain:    fmt.Sprintf("private%d.%s", i, s.randDomain()),
			country:   "US",
		})
	}

	for i, e := range entities {
		pub := s.pickPublicCA()
		iss := pub.issuing[0]
		// The signing CA's certificate is issued by the public program
		// (so it is classified public-DB issued) while the leaf it signs
		// is non-public-DB issued (the signing CA is in no store).
		signingCert := s.pki.mkCert(iss.Cert.Subject, e.signingCA, withBC(certmodel.BCTrue), withValidity(6*365*24*time.Hour))
		var leafOpts []certOpt
		leafOpts = append(leafOpts, withBC(certmodel.BCFalse), withSANs(e.domain))
		switch i {
		case 3: // expired > 5 years
			leafOpts = append(leafOpts, withBackdate(6*365*24*time.Hour), withValidity(365*24*time.Hour))
		case 7, 11: // mildly expired
			leafOpts = append(leafOpts, withBackdate(400*24*time.Hour), withValidity(365*24*time.Hour))
		default:
			leafOpts = append(leafOpts, withValidity(2*365*24*time.Hour))
		}
		leaf := s.pki.mkCert(e.signingCA, dnFor(e.domain, "", e.country), leafOpts...)
		ch := certmodel.Chain{leaf, signingCert, iss.Cert}
		// §4.2: all 26 anchored non-public leaves are properly CT-logged.
		s.CT.Append(ch, s.Config.Start.AddDate(0, 0, -30))
		emit(ch, e.domain, hybridEstComplete, false)
	}
}

// genHybridCompletePubToPrv builds the 10 Scalyr/Canal+-pattern chains
// (Appendix F.1): public leaf and two intermediates followed by a
// non-public certificate whose subject matches the preceding issuer.
func (s *Scenario) genHybridCompletePubToPrv(emit func(certmodel.Chain, string, float64, bool) *Observation) {
	backends := []string{"app.scalyr.example.com", "backend.canal-plus.example.com"}
	for i := 0; i < hybridCompletePubToPrv; i++ {
		pub := s.pickPublicCA()
		iss := pub.issuing[0]
		domain := fmt.Sprintf("node%d.%s", i, backends[i%len(backends)])
		leaf := iss.leaf(dnFor(domain, "", ""), withSANs(domain))
		// The private tail: subject equals the public root's subject so
		// the issuer–subject walk stays matched, but its own issuer is the
		// organization itself.
		tail := s.pki.mkCert(
			dnFor("Scalyr Internal CA", "Scalyr", "US"),
			pub.root.Cert.Subject,
			withBC(certmodel.BCTrue), withValidity(5*365*24*time.Hour))
		ch := certmodel.Chain{leaf, iss.Cert, pub.root.Cert, tail}
		s.CT.Append(ch, s.randTime())
		emit(ch, domain, 0.9849, false)
	}
}

// genHybridContains builds the 70 contains-complete chains: 14 Fake LE
// staging placeholders, plus corporate/append misconfigurations (HP
// "tester", Athenz, extra roots, leaf-first chains) per Appendix F.2.
func (s *Scenario) genHybridContains(emit func(certmodel.Chain, string, float64, bool) *Observation) {
	le := s.publicCAs[0] // the Lets Encrypt analog
	fakeLE := s.pki.mkCert(
		dnFor("Fake LE Root X1", "", ""),
		dnFor("Fake LE Intermediate X1", "", ""),
		withBC(certmodel.BCTrue), withValidity(5*365*24*time.Hour))

	for i := 0; i < hybridContainsComplete; i++ {
		domain := fmt.Sprintf("host%d.%s", i, s.randDomain())
		base, ca := s.issuePublicChain(domain, true)
		var ch certmodel.Chain
		switch {
		case i < hybridContainsFakeLE:
			// Staging placeholder appended after a valid Lets Encrypt
			// path (the --test-cert leak).
			iss := le.issuing[i%len(le.issuing)]
			leaf := iss.leaf(dnFor(domain, "", ""), withSANs(domain))
			ch = certmodel.Chain{leaf, iss.Cert, le.root.Cert, fakeLE}
		case i < 34:
			// Self-signed corporate cert appended (HP tester pattern).
			tester := s.pki.mkCert(dnFor("tester", "", ""), dnFor("tester", "", ""))
			ch = append(base, tester)
		case i < 48:
			// Athenz service-auth cert appended.
			athenz := s.pki.mkCert(
				dnFor("Athenz Self Signed CA", "Athenz", "US"),
				dnFor("Athenz Self Signed CA", "Athenz", "US"))
			ch = append(base, athenz)
		case i < 60:
			// Leaf-first: an unrelated non-public leaf precedes the
			// complete matched path.
			extra := s.pki.mkCert(dnFor("Old Internal CA", "", ""), dnFor("legacy."+domain, "", ""), withBC(certmodel.BCFalse))
			ch = append(certmodel.Chain{extra}, base...)
		default:
			// Non-public root plus a second public root appended.
			privRoot := s.pki.mkCert(dnFor("Branch Office Root", "", ""), dnFor("Branch Office Root", "", ""))
			other := s.publicCAs[(s.indexOfCA(ca)+1)%len(s.publicCAs)]
			ch = append(base, privRoot, other.root.Cert)
		}
		s.CT.Append(ch, s.randTime())
		emit(ch, domain, hybridEstContains, false)
	}
}

func (s *Scenario) indexOfCA(ca *publicCA) int {
	for i, c := range s.publicCAs {
		if c == ca {
			return i
		}
	}
	return 0
}

// localhostDN is the recurring self-signed leaf DN of Appendix F.3.
func localhostDN() dn.DN {
	return dn.FromMap(
		"EMAILADDRESS", "webmaster@localhost",
		"CN", "localhost",
		"OU", "none",
		"O", "none",
		"L", "Sometown",
		"ST", "Someprovince",
		"C", "US",
	)
}

// mkCAChainTail fabricates a matched run of k CA certificates (child
// first): every issuer–subject pair inside the run matches, every member is
// CA=TRUE (so the run can never be a complete matched path), and the topmost
// member is issued by a public program so the surrounding chain classifies
// as hybrid.
func (s *Scenario) mkCAChainTail(k int) certmodel.Chain {
	pub := s.pickPublicCA()
	org := s.randDomain()
	names := make([]dn.DN, k+1)
	for i := 0; i < k; i++ {
		names[i] = dnFor(fmt.Sprintf("%s Tier %d CA", org, k-i), org, "US")
	}
	names[k] = pub.issuing[0].Cert.Subject // issuer of the topmost member
	out := make(certmodel.Chain, k)
	for i := 0; i < k; i++ {
		out[i] = s.pki.mkCert(names[i+1], names[i], withBC(certmodel.BCTrue))
	}
	return out
}

// genHybridNoPath builds the 215 Table 7 chains. Within the 215, 56 chains
// carry a public-DB leaf without its issuing intermediate (the §4.2
// sub-finding): 35 inside the all-mismatched group and 21 inside the
// partial group. Tail lengths are calibrated so the mismatch-ratio
// distribution spans 0.1–1.0 with ≈56.74% at or above 0.5 (Figure 6).
func (s *Scenario) genHybridNoPath(emit func(certmodel.Chain, string, float64, bool) *Observation) {
	// --- 108 self-signed non-public leaf + mismatches; 100 use the
	// localhost DN verbatim.
	for i := 0; i < hybridNoPathSelfSignedMismatch; i++ {
		var leaf *certmodel.Meta
		if i < 100 {
			d := localhostDN()
			leaf = s.pki.mkCert(d, d)
		} else {
			d := dnFor("selfhost"+fmt.Sprint(i)+".corp", "", "")
			leaf = s.pki.mkCert(d, d)
		}
		domain := fmt.Sprintf("nopath%d.%s", i, s.randDomain())
		// The leaf link always mismatches and a stray certificate always
		// terminates the chain (so the remainder is never a fully valid
		// sub-chain — that is the separate 13-chain category). The ratio
		// is 2/(k+1): 15 chains land at >= 0.5, 93 below, down to 0.1.
		var k int
		switch {
		case i < 10:
			k = 1 // ratio 1.0
		case i < 15:
			k = 3 // ratio 0.5
		case i < 40:
			k = 4 + s.rng.IntN(2) // 0.40 or 0.33
		case i < 70:
			k = 6 + s.rng.IntN(4) // 0.29 .. 0.20
		case i < 100:
			k = 10 + s.rng.IntN(6) // 0.18 .. 0.13
		default:
			k = 17 + s.rng.IntN(6) // 0.11 .. 0.09, very long chains (Fig 1)
		}
		ch := append(certmodel.Chain{leaf}, s.mkCAChainTail(k)...)
		stray := s.pki.mkCert(dnFor("Stray Issuer", "", ""), dnFor("stray.dev", "", ""))
		ch = append(ch, stray)
		emit(ch, domain, hybridEstNoPath, true)
	}

	// --- 13 self-signed cert replacing the leaf of a valid sub-chain.
	for i := 0; i < hybridNoPathSelfSignedValidSub; i++ {
		d := dnFor(fmt.Sprintf("replaced%d.example", i), "", "")
		leaf := s.pki.mkCert(d, d)
		domain := fmt.Sprintf("replaced%d.%s", i, s.randDomain())
		pub, _ := s.issuePublicChain(domain, true)
		ch := append(certmodel.Chain{leaf}, pub[1:]...) // intermediate + root, fully matched
		emit(ch, domain, hybridEstNoPath, true)
	}

	// --- 61 all-mismatched; 35 carry a public leaf missing its issuer.
	for i := 0; i < hybridNoPathAllMismatched; i++ {
		domain := fmt.Sprintf("allmis%d.%s", i, s.randDomain())
		var head *certmodel.Meta
		if i < 35 {
			pub, _ := s.issuePublicChain(domain, false)
			head = pub[0] // public leaf, issuer deliberately not delivered
		} else {
			head = s.pki.mkCert(dnFor("Lost CA "+fmt.Sprint(i), "", ""), dnFor(domain, "", ""), withBC(certmodel.BCFalse))
		}
		// junk1 is issued by a public root so non-public heads still yield
		// a hybrid chain; its links mismatch on both sides.
		pubRoot := s.pickPublicCA().root
		junk1 := s.pki.mkCert(pubRoot.Cert.Subject, dnFor("Junk CA B", "", ""), withBC(certmodel.BCTrue))
		ch := certmodel.Chain{head, junk1}
		// Public-headed chains need a non-public member to stay hybrid;
		// non-public-headed ones get the extra junk half the time.
		if i < 35 || s.rng.Float64() < 0.5 {
			junk2 := s.pki.mkCert(dnFor("Junk Root C", "", ""), dnFor("Junk CA D", "", ""), withBC(certmodel.BCTrue))
			ch = append(ch, junk2)
		}
		emit(ch, domain, hybridEstNoPath, true)
	}

	// --- 27 partial; 21 carry a public leaf missing its issuer.
	for i := 0; i < hybridNoPathPartial; i++ {
		domain := fmt.Sprintf("partial%d.%s", i, s.randDomain())
		var head *certmodel.Meta
		if i < 21 {
			pub, _ := s.issuePublicChain(domain, false)
			head = pub[0]
		} else {
			head = s.pki.mkCert(dnFor("Detached CA", "", ""), dnFor(domain, "", ""), withBC(certmodel.BCFalse))
		}
		// A matched CA pair that does not connect to the head; the top is
		// issued by a public root to keep the chain hybrid.
		org := s.randDomain()
		pubRoot := s.pickPublicCA().root
		mid := s.pki.mkCert(dnFor(org+" Root", org, "US"), dnFor(org+" CA", org, "US"), withBC(certmodel.BCTrue))
		top := s.pki.mkCert(pubRoot.Cert.Subject, dnFor(org+" Root", org, "US"), withBC(certmodel.BCTrue))
		ch := certmodel.Chain{head, mid, top}
		emit(ch, domain, hybridEstNoPath, true)
	}

	// --- 5 non-public root appended to a truncated public sub-chain.
	for i := 0; i < hybridNoPathRootAppended; i++ {
		domain := fmt.Sprintf("trunc%d.%s", i, s.randDomain())
		pub, _ := s.issuePublicChain(domain, true)
		sub := pub[1:] // drop the leaf: intermediate + root, matched
		d := dnFor(fmt.Sprintf("Appliance Root %d", i), "", "")
		privRoot := s.pki.mkCert(d, d)
		ch := append(sub.Clone(), privRoot)
		emit(ch, domain, hybridEstNoPath, true)
	}

	// --- 1 non-public root amid mismatches. A public-issued CA in the
	// middle keeps the chain hybrid; every link mismatches and the tail is
	// a non-public self-signed root.
	{
		domain := "oddball." + s.randDomain()
		head := s.pki.mkCert(dnFor("Unrelated CA", "", ""), dnFor(domain, "", ""), withBC(certmodel.BCFalse))
		pubRoot := s.pickPublicCA().root
		mid := s.pki.mkCert(pubRoot.Cert.Subject, dnFor("Orphaned Issuing CA", "", ""), withBC(certmodel.BCTrue))
		d := dnFor("Lone Private Root", "", "")
		privRoot := s.pki.mkCert(d, d)
		emit(certmodel.Chain{head, mid, privRoot}, domain, hybridEstNoPath, true)
	}
}

var _ = time.Second
