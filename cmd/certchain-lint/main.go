// Command certchain-lint is the chain doctor as a CLI: it lints a delivered
// certificate chain — from a PEM file or scanned live from a TLS endpoint —
// and proposes the repaired delivery (§6.2's tooling recommendation). A
// whole Zeek log corpus is linted by certchain-analyze -lint PROFILE.
//
// Usage:
//
//	certchain-lint -pem fullchain.pem
//	certchain-lint -sni example.com 192.0.2.7:443
//	certchain-lint -pem fullchain.pem -sarif > findings.sarif
//	certchain-lint -list-checks -profile paper
package main

import (
	"context"
	"crypto/x509"
	"encoding/pem"
	"flag"
	"fmt"
	"os"
	"time"

	"certchains"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "certchain-lint:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		pemPath = flag.String("pem", "", "PEM file containing the delivered chain, leaf first")
		sni     = flag.String("sni", "", "SNI to offer when scanning an endpoint")
		timeout = flag.Duration("timeout", 5*time.Second, "scan timeout")
		profile = flag.String("profile", "", "check profile: paper, strict, or all (default all)")
		list    = flag.Bool("list-checks", false, "print every check of the selected profile and exit")
		asJSON  = flag.Bool("json", false, "emit findings as JSON")
		asSARIF = flag.Bool("sarif", false, "emit findings as SARIF 2.1.0")
		nowFlag = flag.String("now", "", "reference time for validity checks, RFC 3339 (default wall clock)")
	)
	flag.Parse()

	cfg := certchains.LintConfig{Profile: *profile}
	if *nowFlag != "" {
		t, err := time.Parse(time.RFC3339, *nowFlag)
		if err != nil {
			return fmt.Errorf("bad -now %q: %w", *nowFlag, err)
		}
		cfg.Now = t
	}

	if *list {
		return listChecks(cfg)
	}

	var ch certchains.Chain
	artifact := "chain"
	switch {
	case *pemPath != "":
		var err error
		ch, err = loadPEMChain(*pemPath)
		if err != nil {
			return err
		}
		artifact = *pemPath
	case flag.NArg() == 1:
		sc := certchains.NewScanner(*timeout)
		res := sc.Scan(context.Background(), flag.Arg(0), *sni)
		if res.Err != nil {
			return res.Err
		}
		ch = res.Chain
		artifact = flag.Arg(0)
	default:
		return fmt.Errorf("pass -pem <file> or exactly one host:port target")
	}
	if len(ch) == 0 {
		return fmt.Errorf("no certificates found")
	}

	classifier := certchains.NewClassifier(certchains.NewTrustDB())
	linter := certchains.NewLinter(classifier, cfg)

	a := classifier.Analyze(ch)
	findings := linter.Chain(ch)

	if *asJSON {
		return certchains.WriteLintJSON(os.Stdout, findings)
	}
	if *asSARIF {
		return certchains.WriteLintSARIF(os.Stdout, linter, artifact, findings)
	}

	fmt.Printf("chain of %d certificate(s):\n", len(ch))
	for i, m := range ch {
		fmt.Printf("  [%d] subject=%q issuer=%q bc=%s\n", i, m.Subject.String(), m.Issuer.String(), m.BC)
	}

	fmt.Printf("\nstructure: verdict=%s mismatch-ratio=%.2f unnecessary=%d\n",
		a.Verdict, a.MismatchRatio, len(a.Unnecessary))

	if len(findings) == 0 {
		fmt.Println("lint: clean")
	}
	for _, f := range findings {
		fmt.Printf("lint: %s\n", f)
	}
	info, warn, errs := certchains.LintSummary(findings)
	fmt.Printf("lint summary: %d info, %d warnings, %d errors\n", info, warn, errs)

	r := certchains.RepairWithClock(a, time.Now())
	if !r.Fixable {
		fmt.Println("\nrepair: not repairable from the presented certificates")
		return nil
	}
	if len(r.Actions) == 0 {
		fmt.Println("\nrepair: delivery already minimal")
		return nil
	}
	fmt.Println("\nrepair plan:")
	for _, act := range r.Actions {
		fmt.Printf("  %s: %s\n", act.Kind, act.Reason)
	}
	fmt.Printf("proposed delivery (%d certs):\n", len(r.Chain))
	for i, m := range r.Chain {
		fmt.Printf("  [%d] %s\n", i, m.Subject.String())
	}
	return nil
}

// listChecks prints the check inventory of the selected profile: stable ID,
// severity, scope, profiles, description, and the paper citation.
func listChecks(cfg certchains.LintConfig) error {
	linter := certchains.NewLinter(certchains.NewClassifier(certchains.NewTrustDB()), cfg)
	checks := linter.EnabledChecks()
	fmt.Printf("%d check(s) enabled under profile %q:\n\n", len(checks), linter.Config().Profile)
	for _, c := range checks {
		fmt.Printf("%-26s %-5s %-5s %s\n", c.ID, c.Severity, c.Scope, c.Description)
		fmt.Printf("%-26s %-5s %-5s cite: %s\n", "", "", "", c.Citation)
	}
	return nil
}

func loadPEMChain(path string) (certchains.Chain, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ch certchains.Chain
	for len(data) > 0 {
		var block *pem.Block
		block, data = pem.Decode(data)
		if block == nil {
			break
		}
		if block.Type != "CERTIFICATE" {
			continue
		}
		cert, err := x509.ParseCertificate(block.Bytes)
		if err != nil {
			return nil, fmt.Errorf("parse certificate %d: %w", len(ch), err)
		}
		ch = append(ch, certchains.CertificateFromX509(cert))
	}
	return ch, nil
}
