// Command certchain-scan is the retrospective scanner of §5: it connects to
// TLS endpoints, records the chain each presents, and prints a structural
// verdict per endpoint.
//
// Usage:
//
//	certchain-scan host1:443 host2:8443 ...
//	certchain-scan -sni example.com 192.0.2.1:443
//	certchain-scan -demo [-hold]    # spin up a local farm and scan it
//	certchain-scan -baseline-ssl old/ssl.log -baseline-x509 old/x509.log host:443
//
// With a baseline, each scanned chain is compared against the chain the same
// SNI served during the logged period — the paper's then-vs-now comparison.
//
// The -demo farm presents the kinds of chains the paper observes: a clean
// public-style chain, a chain with an unnecessary appended certificate, a
// hybrid government-style chain, and a self-signed single. With -hold it
// keeps serving after the scan until interrupted, so openssl s_client (or
// another certchain-scan) can examine the same endpoints.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"certchains/internal/analysis"
	"certchains/internal/certmodel"
	"certchains/internal/chain"
	"certchains/internal/pki"
	"certchains/internal/scanner"
	"certchains/internal/serverfarm"
	"certchains/internal/trustdb"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "certchain-scan:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		sni      = flag.String("sni", "", "server name to offer (default: derived per target)")
		timeout  = flag.Duration("timeout", 5*time.Second, "per-connection timeout")
		parallel = flag.Int("parallel", 8, "concurrent scans")
		retries  = flag.Int("retries", 3, "retries per target after a transient failure")
		demo     = flag.Bool("demo", false, "start a local demo farm and scan it")
		hold     = flag.Bool("hold", false, "with -demo, keep serving after the scan until interrupted")
		baseSSL  = flag.String("baseline-ssl", "", "prior ssl.log for then-vs-now comparison")
		baseX509 = flag.String("baseline-x509", "", "prior x509.log for then-vs-now comparison")
	)
	flag.Parse()

	// Baseline: SNI -> previously observed chain.
	baseline := make(map[string]certmodel.Chain)
	if *baseSSL != "" || *baseX509 != "" {
		if *baseSSL == "" || *baseX509 == "" {
			return fmt.Errorf("baseline needs both -baseline-ssl and -baseline-x509")
		}
		sslF, err := os.Open(*baseSSL)
		if err != nil {
			return err
		}
		defer sslF.Close()
		x5F, err := os.Open(*baseX509)
		if err != nil {
			return err
		}
		defer x5F.Close()
		observations, err := analysis.Load(sslF, x5F)
		if err != nil {
			return err
		}
		for _, o := range observations {
			if o.Domain != "" && len(o.Chain) > 0 {
				if _, dup := baseline[o.Domain]; !dup {
					baseline[o.Domain] = o.Chain
				}
			}
		}
		fmt.Printf("baseline: %d domains with prior chains\n", len(baseline))
	}

	sc := scanner.New(*timeout)
	sc.Retry.MaxAttempts = 1 + *retries
	cl := chain.NewClassifier(trustdb.New())

	var targets []scanner.Target
	if *demo {
		farm := serverfarm.New()
		defer farm.Close()
		if err := populateDemo(pki.NewMint(1, time.Now()), farm, cl.DB); err != nil {
			return err
		}
		for _, srv := range farm.Servers() {
			fmt.Printf("%-28s %s  (%d certs)\n", srv.Domain, srv.Addr, len(srv.Chain))
			targets = append(targets, scanner.Target{Addr: srv.Addr, SNI: srv.Domain})
		}
	} else {
		if flag.NArg() == 0 {
			return fmt.Errorf("no targets; pass host:port arguments or -demo")
		}
		for _, addr := range flag.Args() {
			targets = append(targets, scanner.Target{Addr: addr, SNI: *sni})
		}
	}

	results := sc.ScanAll(context.Background(), targets, *parallel)
	for _, res := range results {
		if res.Err != nil {
			fmt.Printf("%-24s %s after %d attempt(s): %v\n", res.Addr, res.Outcome, res.Attempts, res.Err)
			continue
		}
		a := cl.Analyze(res.Chain)
		fmt.Printf("%-24s %d certs  category=%s  verdict=%s  unnecessary=%d  (%.0f ms)\n",
			res.Addr, len(res.Chain), a.Category, a.Verdict, len(a.Unnecessary),
			float64(res.Duration.Microseconds())/1000)
		for i, m := range res.Chain {
			fmt.Printf("    [%d] subject=%q issuer=%q\n", i, m.Subject.String(), m.Issuer.String())
		}
		if old, ok := baseline[res.SNI]; ok {
			cmp := scanner.Compare(cl, res.Addr, old, res.Chain)
			fmt.Printf("    then-vs-now: %s (%d certs) -> %s (%d certs), new verdict %s\n",
				cmp.OldCategory, cmp.OldLen, cmp.NewCategory, cmp.NewLen, cmp.NewVerdict)
		}
	}
	// Sweep summary: unreachable servers are outcomes, not aborts (§5's
	// retrospective scan reports what it could not reach).
	summary := scanner.Summarize(results)
	fmt.Printf("sweep: %d targets", len(results))
	for _, outcome := range []string{scanner.OutcomeOK, scanner.OutcomeEmpty, scanner.OutcomeHandshake, scanner.OutcomeDial} {
		if n := summary[outcome]; n > 0 {
			fmt.Printf("  %s=%d", outcome, n)
		}
	}
	fmt.Println()
	if *demo && *hold {
		fmt.Println("serving; interrupt to stop")
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt)
		<-ch
	}
	return nil
}

// populateDemo starts the demo farm's four servers and registers the demo
// root and issuing CA in db, so classification has a public side.
func populateDemo(mint *pki.Mint, farm *serverfarm.Farm, db *trustdb.DB) error {
	root, err := mint.NewRoot(pki.Name("Demo Root CA", "Demo"))
	if err != nil {
		return err
	}
	inter, err := root.NewIntermediate(pki.Name("Demo Issuing CA", "Demo"))
	if err != nil {
		return err
	}
	db.AddRoot(trustdb.StoreMozilla, root.Cert.Meta)
	if err := db.AddCCADBIntermediate(inter.Cert.Meta); err != nil {
		return err
	}

	// Clean public-style chain.
	leaf, err := inter.IssueLeaf(pki.Name("clean.example.test"), pki.WithSANs("clean.example.test"))
	if err != nil {
		return err
	}
	if _, err := farm.Add("clean.example.test", pki.Chain(leaf, inter.Cert)); err != nil {
		return err
	}

	// Chain with an unnecessary appended certificate (the HP "tester"
	// pattern of Appendix F.2).
	leaf2, err := inter.IssueLeaf(pki.Name("extra.example.test"), pki.WithSANs("extra.example.test"))
	if err != nil {
		return err
	}
	tester, err := mint.SelfSigned(pki.Name("tester"))
	if err != nil {
		return err
	}
	if _, err := farm.Add("extra.example.test", pki.Chain(leaf2, inter.Cert, tester)); err != nil {
		return err
	}

	// Hybrid: non-public signing CA certified by the public program
	// (Table 6 pattern).
	signing, err := inter.NewIntermediate(pki.Name("Agency CA B3", "Government Agency"))
	if err != nil {
		return err
	}
	leaf3, err := signing.IssueLeaf(pki.Name("portal.agency.test"), pki.WithSANs("portal.agency.test"))
	if err != nil {
		return err
	}
	if _, err := farm.Add("portal.agency.test", pki.Chain(leaf3, signing.Cert, inter.Cert)); err != nil {
		return err
	}

	// Self-signed single-certificate server (the §4.3 majority).
	selfSigned, err := mint.SelfSigned(pki.Name("printer.campus.test"), pki.WithSANs("printer.campus.test"))
	if err != nil {
		return err
	}
	_, err = farm.Add("printer.campus.test", pki.Chain(selfSigned))
	return err
}
