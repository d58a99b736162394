// Command certchain-vet runs the project's static-analysis suite over the
// source tree: determinism (wall clock, unseeded rand, map-ordered output),
// resilience (network and sleep paths must use the internal/resilience
// seams), hotpath (allocation ratchet for //certchain:hotpath files), and
// locks (no blocking operations under a mutex, no defer-unlock in loops).
// Merge and snapshot completeness is not a static rule: the merge-contract
// laws (internal/analysis/laws_test.go) check it by behaviour.
//
// Suppressions live in the checked-in .certchain-vet.json allowlist; every
// entry carries a mandatory reason, and entries whose path matches no file
// fail the run (stale-allowlist check). The command exits non-zero when any
// non-allowlisted finding or stale entry remains, so `make vet` and CI gate
// on it.
//
// Usage:
//
//	certchain-vet [-analyzers determinism,locks,...] [-format text|json|sarif]
//	              [-artifact vet.json] [-config .certchain-vet.json] [-tests] [root]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"certchains/internal/analyzers/vet"
)

func main() {
	var (
		analyzersFlag = flag.String("analyzers", "",
			"comma-separated analyzers to run (default all: "+strings.Join(vet.Names(), ",")+")")
		format   = flag.String("format", "text", "output format: text, json, or sarif")
		artifact = flag.String("artifact", "",
			"also write a JSON report to this file (CI artifact), independent of -format")
		configPath = flag.String("config", "",
			"allowlist config (default: <root>/"+vet.DefaultConfigName+" when present)")
		tests = flag.Bool("tests", false, "analyze _test.go files too")
	)
	flag.Parse()

	root := "."
	if flag.NArg() > 0 {
		root = flag.Arg(0)
	}

	cfgPath := *configPath
	optional := false
	if cfgPath == "" {
		cfgPath = filepath.Join(root, vet.DefaultConfigName)
		optional = true
	}
	cfg, err := vet.LoadConfig(cfgPath, optional)
	if err != nil {
		fatal(err)
	}

	var names []string
	if *analyzersFlag != "" {
		names = strings.Split(*analyzersFlag, ",")
	}
	res, err := vet.Run(vet.Options{
		Root:         root,
		Analyzers:    names,
		IncludeTests: *tests,
		Config:       cfg,
	})
	if err != nil {
		fatal(err)
	}

	if *artifact != "" {
		f, err := os.Create(*artifact)
		if err != nil {
			fatal(err)
		}
		if err := vet.WriteJSON(f, res); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	switch *format {
	case "text":
		err = vet.WriteText(os.Stdout, res)
	case "json":
		err = vet.WriteJSON(os.Stdout, res)
	case "sarif":
		err = vet.WriteSARIF(os.Stdout, res)
	default:
		err = fmt.Errorf("certchain-vet: unknown format %q (want text, json, or sarif)", *format)
	}
	if err != nil {
		fatal(err)
	}

	if n := len(res.Findings) + len(res.Stale); n > 0 {
		fmt.Fprintf(os.Stderr, "certchain-vet: %d finding(s), %d stale allowlist entr(ies), %d suppressed\n",
			len(res.Findings), len(res.Stale), res.Suppressed)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "certchain-vet:", err)
	os.Exit(1)
}
