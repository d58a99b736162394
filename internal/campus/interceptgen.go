package campus

import (
	"fmt"

	"certchains/internal/certmodel"
	"certchains/internal/chain"
	"certchains/internal/dn"
	"certchains/internal/intercept"
)

// Table 1 structural absolutes: 80 interception issuers across six sectors,
// with the paper's connection shares (percent × 100) and client IP counts.
var interceptSectors = []struct {
	category   intercept.Category
	issuers    int
	connShare  int // basis points of interception connections
	paperIPs   int
	vendorSeed []string
}{
	{intercept.CategorySecurityNetwork, 31, 9474, 17915,
		[]string{"Zscaler", "McAfee Web Gateway", "FireEye", "Fortinet FortiGate", "Palo Alto Networks", "Blue Coat ProxySG", "Sophos", "Cisco Umbrella"}},
	{intercept.CategoryBusinessCorporate, 27, 499, 4787,
		[]string{"Freddie Mac", "Meridian Holdings", "Apex Manufacturing", "Crestline Logistics"}},
	{intercept.CategoryHealthEducation, 10, 2, 35,
		[]string{"Securly", "District Public Schools", "Lakeside Health System"}},
	{intercept.CategoryGovernment, 6, 24, 25,
		[]string{"US Department Gateway", "State Agency Proxy"}},
	{intercept.CategoryBankFinance, 3, 1, 14,
		[]string{"Nationwide", "First Meridian Bank"}},
	{intercept.CategoryOther, 3, 0, 73,
		[]string{"Community Org", "Regional Coop"}},
}

// Interception port mix (Table 4): 8013 is Fortinet's interception port.
var interceptPorts = weightedPorts{
	{8013, 3540}, {4437, 2514}, {14430, 1634}, {443, 1336}, {514, 353}, {10443, 623},
}

// Figure 1 / §4.3 shapes.
const (
	interceptSingleShare     = 0.1324
	interceptSingleSelfShare = 0.9343
	interceptMatchedShare    = 0.9894
	interceptContainsShare   = 56.0 / (56.0 + 2764.0)
)

// interceptionIssuer is one generated middlebox CA.
type interceptionIssuer struct {
	reg      *intercept.Issuer
	root     *metaCA
	issuing  *metaCA
	category intercept.Category
}

// generateInterception emits the interception population and registers the
// 80 issuers in the scenario registry and classifier.
func (s *Scenario) generateInterception() {
	// Popular destination domains whose genuine certificates are CT-logged
	// by public issuers — the cross-reference baseline.
	nPopular := 40 + s.scaled(160)
	popular := make([]string, nPopular)
	for i := range popular {
		popular[i] = fmt.Sprintf("www.%s", s.randDomain())
		real, _ := s.issuePublicChain(popular[i], false)
		s.CT.Append(real, s.Config.Start.AddDate(0, 0, -60))
	}

	// Build the 80 issuers.
	var issuers []*interceptionIssuer
	for _, sec := range interceptSectors {
		for i := 0; i < sec.issuers; i++ {
			vendor := sec.vendorSeed[i%len(sec.vendorSeed)]
			name := vendor
			if i >= len(sec.vendorSeed) {
				name = fmt.Sprintf("%s Unit %d", vendor, i)
			}
			rootDN := dnFor(name+" Root CA", name, "US")
			interDN := dnFor(name+" SSL Inspection CA", name, "US")
			root := s.pki.newSelfSignedIssuer(rootDN)
			issuing := root.intermediate(interDN, withBC(s.subsequentBC()))
			ii := &interceptionIssuer{
				reg:      &intercept.Issuer{DN: interDN, Name: name, Category: sec.category},
				root:     root,
				issuing:  issuing,
				category: sec.category,
			}
			issuers = append(issuers, ii)
			s.InterceptRegistry.Add(ii.reg)
			// The classifier learns the issuer set after detection; the
			// scenario pre-registers it as the paper's enrichment output.
			s.Classifier.AddInterceptionIssuer(interDN)
			s.Classifier.AddInterceptionIssuer(rootDN)
		}
	}

	nChains := s.scaled(paperInterceptChains)
	totalConns := int64(float64(paperInterceptConns) * s.Config.Scale)
	singleCount := 0

	// Allocate chains and connections to sectors by connection share;
	// every issuer gets at least one chain.
	for si, sec := range interceptSectors {
		secIssuers := issuersOf(issuers, sec.category)
		secChains := nChains * sec.connShare / 10000
		if secChains < len(secIssuers) {
			secChains = len(secIssuers)
		}
		secConns := totalConns * int64(sec.connShare) / 10000
		if secConns < int64(secChains) {
			secConns = int64(secChains)
		}
		connSplit := s.split(secConns, secChains)
		pop := s.ipPool.take(max(1, s.scaled(sec.paperIPs)))

		for ci := 0; ci < secChains; ci++ {
			ii := secIssuers[ci%len(secIssuers)]
			domain := popular[s.rng.IntN(len(popular))]
			if ci < len(secIssuers) {
				// Guarantee each issuer at least one CT-referencable
				// observation so detection finds all 80.
				domain = popular[(si*31+ci)%len(popular)]
			}
			var ch certmodel.Chain
			r := s.rng.Float64()
			switch {
			case r < interceptSingleShare:
				singleCount++
				// Every 15th single-certificate chain carries distinct
				// issuer/subject names: 14/15 ≈ the paper's 93.43%
				// self-signed share, deterministic at any scale.
				if singleCount%15 != 0 {
					d := dnFor(domain, ii.reg.Name, "US")
					ch = certmodel.Chain{s.pki.mkCert(d, d)}
					// Self-signed forgeries carry the vendor in O=; the
					// enrichment step attributes them to the entity.
					s.Classifier.AddInterceptionIssuer(d)
				} else {
					leaf := ii.issuing.leaf(dnFor(domain, "", ""), withBC(s.maybeAbsentBC(0.4)), withSANs(domain))
					ch = certmodel.Chain{leaf}
				}
			case r < interceptSingleShare+(1-interceptSingleShare)*interceptMatchedShare:
				// The dominant 3-cert matched chain: forged leaf +
				// inspection CA + vendor root.
				leaf := ii.issuing.leaf(dnFor(domain, "", ""), withSANs(domain))
				ch = certmodel.Chain{leaf, ii.issuing.Cert, ii.root.Cert}
			case s.rng.Float64() < interceptContainsShare:
				// Matched pair plus an unrelated stale middlebox cert.
				leaf := ii.issuing.leaf(dnFor(domain, "", ""), withSANs(domain))
				stale := s.pki.mkCert(dnFor("Retired Inspection CA", ii.reg.Name, "US"), dnFor("Old Gateway", ii.reg.Name, "US"))
				ch = certmodel.Chain{leaf, ii.issuing.Cert, stale}
			default:
				// No matched path: leaf with a mismatched middle.
				leaf := ii.issuing.leaf(dnFor(domain, "", ""), withSANs(domain))
				wrong := s.pki.mkCert(dnFor(ii.reg.Name+" Legacy Root", ii.reg.Name, "US"), dnFor(ii.reg.Name+" Legacy CA", ii.reg.Name, "US"), withBC(certmodel.BCTrue))
				ch = certmodel.Chain{leaf, wrong}
			}
			first, last := s.window()
			conns := connSplit[ci]
			o := &Observation{
				Chain:       ch,
				Category:    chain.Interception,
				ServerIP:    s.serverIP(),
				Port:        interceptPorts.pick(s),
				Domain:      domain,
				Conns:       conns,
				Established: s.establishSplit(conns, 0.96),
				ClientIPs:   s.pickClientIPs(pop, 1+s.rng.IntN(8)),
				First:       first,
				Last:        last,
			}
			s.Observations = append(s.Observations, o)
		}
	}
}

func issuersOf(all []*interceptionIssuer, c intercept.Category) []*interceptionIssuer {
	var out []*interceptionIssuer
	for _, i := range all {
		if i.category == c {
			out = append(out, i)
		}
	}
	return out
}

var _ = dn.FromMap
