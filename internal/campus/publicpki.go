package campus

import (
	"fmt"
	"time"

	"certchains/internal/certmodel"
	"certchains/internal/chain"
	"certchains/internal/dn"
	"certchains/internal/trustdb"
)

// publicCA describes one synthetic public certificate authority program.
type publicCA struct {
	name    string
	root    *metaCA
	issuing []*metaCA
	// weight is the relative share of public-DB-only chains it issues.
	weight int
}

// The synthetic public CA programs. "Lets Encrypt" analog is deliberately
// prominent: the §5 migration target.
var publicCADefs = []struct {
	org     string
	root    string
	issuing []string
	country string
	weight  int
	stores  []string
}{
	{"Lets Encrypt", "ISRG Root X1", []string{"R3", "E1"}, "US", 40,
		[]string{trustdb.StoreMozilla, trustdb.StoreApple, trustdb.StoreMicrosoft}},
	{"DigiCert Inc", "DigiCert Global Root CA", []string{"DigiCert TLS RSA SHA256 2020 CA1", "DigiCert SHA2 Secure Server CA"}, "US", 22,
		[]string{trustdb.StoreMozilla, trustdb.StoreApple, trustdb.StoreMicrosoft}},
	{"Sectigo Limited", "AAA Certificate Services", []string{"Sectigo RSA Domain Validation Secure Server CA"}, "GB", 14,
		[]string{trustdb.StoreMozilla, trustdb.StoreApple, trustdb.StoreMicrosoft}},
	{"GoDaddy.com, Inc.", "Go Daddy Root Certificate Authority - G2", []string{"Go Daddy Secure Certificate Authority - G2"}, "US", 8,
		[]string{trustdb.StoreMozilla, trustdb.StoreMicrosoft}},
	{"GlobalSign", "GlobalSign Root CA", []string{"GlobalSign RSA OV SSL CA 2018"}, "BE", 8,
		[]string{trustdb.StoreMozilla, trustdb.StoreApple}},
	{"Amazon", "Amazon Root CA 1", []string{"Amazon RSA 2048 M01"}, "US", 8,
		[]string{trustdb.StoreMozilla, trustdb.StoreApple, trustdb.StoreMicrosoft}},
}

// buildPublicPKI mints the public hierarchy, fills the root stores and
// CCADB, and registers cross-signing relationships.
func (s *Scenario) buildPublicPKI() {
	for _, def := range publicCADefs {
		root := s.pki.newRootCA(dnFor(def.root, def.org, def.country))
		ca := &publicCA{name: def.org, root: root, weight: def.weight}
		for _, st := range def.stores {
			s.DB.AddRoot(st, root.Cert)
		}
		for _, issName := range def.issuing {
			iss := root.intermediate(dnFor(issName, def.org, def.country))
			ca.issuing = append(ca.issuing, iss)
			if err := s.DB.AddCCADBIntermediate(iss.Cert); err != nil {
				// Programming error: the intermediate was just minted
				// under a stored root.
				panic(fmt.Sprintf("campus: CCADB rejection: %v", err))
			}
		}
		s.publicCAs = append(s.publicCAs, ca)
	}

	// One cross-signing relationship mirroring the Sectigo/AAA disclosure
	// the paper consults: leaves naming the Sectigo issuing CA may chain to
	// the AAA root's alternate subject.
	sectigo := s.publicCAs[2]
	alt := dnFor("USERTrust RSA Certification Authority", "The USERTRUST Network", "US")
	altRoot := s.pki.newRootCA(alt)
	s.DB.AddRoot(trustdb.StoreMozilla, altRoot.Cert)
	s.Classifier.CrossSigns.Add(sectigo.issuing[0].Cert.Subject, alt)
	s.crossRoot = altRoot
}

// pickPublicCA selects a public CA by configured weight.
func (s *Scenario) pickPublicCA() *publicCA {
	total := 0
	for _, ca := range s.publicCAs {
		total += ca.weight
	}
	n := s.rng.IntN(total)
	for _, ca := range s.publicCAs {
		n -= ca.weight
		if n < 0 {
			return ca
		}
	}
	return s.publicCAs[len(s.publicCAs)-1]
}

// issuePublicChain mints a correct public chain for the host: leaf +
// issuing CA, optionally including the root (Figure 1: ~60% of public
// chains have length 2 because the root is omitted).
func (s *Scenario) issuePublicChain(host string, includeRoot bool) (certmodel.Chain, *publicCA) {
	ca := s.pickPublicCA()
	iss := ca.issuing[s.rng.IntN(len(ca.issuing))]
	leaf := iss.leaf(dnFor(host, "", ""), withSANs(host), withValidity(90*24*time.Hour*time.Duration(1+s.rng.IntN(8))))
	ch := certmodel.Chain{leaf, iss.Cert}
	if includeRoot {
		ch = append(ch, ca.root.Cert)
	}
	return ch, ca
}

// generatePublicOnly emits the public-DB-only population. Length mix per
// Figure 1: ~62% length 2, ~25% length 3, ~9% length 1 (leaf only), ~4%
// length 4 (extra cross-signed root).
func (s *Scenario) generatePublicOnly() {
	n := s.scaled(paperPublicChains)
	conns := s.split(int64(float64(n)*120), n) // public traffic volume is not a paper target
	pop := s.ipPool.take(s.scaled(200000))
	for i := 0; i < n; i++ {
		host := s.randHost()
		var ch certmodel.Chain
		switch r := s.rng.Float64(); {
		case r < 0.62:
			ch, _ = s.issuePublicChain(host, false)
		case r < 0.87:
			ch, _ = s.issuePublicChain(host, true)
		case r < 0.96:
			partial, _ := s.issuePublicChain(host, false)
			ch = partial[:1]
		default:
			full, _ := s.issuePublicChain(host, true)
			ch = append(full, s.crossRoot.Cert)
		}
		// Log the leaf in CT: public issuers CT-log by policy.
		s.CT.Append(ch, s.randTime())

		first, last := s.window()
		c := conns[i]
		o := &Observation{
			Chain:       ch,
			Category:    chain.PublicDBOnly,
			ServerIP:    s.serverIP(),
			Port:        443,
			Domain:      host,
			Conns:       c,
			Established: s.establishSplit(c, 0.99),
			ClientIPs:   s.pickClientIPs(pop, 1+s.rng.IntN(12)),
			First:       first,
			Last:        last,
		}
		s.Observations = append(s.Observations, o)
	}
}

// dn re-exported helper for tests needing the scenario's DN shape.
var _ = dn.FromMap
