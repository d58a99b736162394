// Command certchain-gen generates a synthetic campus dataset — the Zeek
// ssl.log and x509.log files the paper's pipeline consumes — from a seed and
// a scale factor.
//
// Usage:
//
//	certchain-gen -out ./data -seed 1 -scale 0.01 -max-conns 50
//
// The scale factor multiplies the paper's bulk counts (731,175 chains /
// 259.30 M connections); structural absolutes (the 321 hybrid chains, the 80
// interception issuers) are always generated in full.
package main

import (
	"compress/gzip"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"certchains/internal/analysis"
	"certchains/internal/campus"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "certchain-gen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		out      = flag.String("out", "data", "output directory for ssl.log and x509.log")
		seed     = flag.Int64("seed", 1, "scenario seed (same seed, same dataset)")
		scale    = flag.Float64("scale", 0.01, "fraction of paper-scale volume")
		maxConns = flag.Int64("max-conns", 50, "cap on ssl.log rows per chain observation (0 = unbounded)")
		format   = flag.String("format", "tsv", "log format: tsv (Zeek default) or json (ND-JSON)")
		gzipOut  = flag.Bool("gzip", false, "gzip-compress the log files (.gz suffix)")
	)
	flag.Parse()
	f, err := analysis.ParseFormat(*format)
	if err != nil {
		return err
	}

	cfg := campus.DefaultConfig()
	cfg.Seed = *seed
	cfg.Scale = *scale
	scenario, err := campus.Generate(cfg)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}

	suffix := ""
	if *gzipOut {
		suffix = ".gz"
	}
	sslPath := filepath.Join(*out, "ssl.log"+suffix)
	x509Path := filepath.Join(*out, "x509.log"+suffix)
	sslF, err := os.Create(sslPath)
	if err != nil {
		return err
	}
	defer sslF.Close()
	x509F, err := os.Create(x509Path)
	if err != nil {
		return err
	}
	defer x509F.Close()
	var sslW io.Writer = sslF
	var x509W io.Writer = x509F
	var gzClosers []*gzip.Writer
	if *gzipOut {
		gs, gx := gzip.NewWriter(sslF), gzip.NewWriter(x509F)
		sslW, x509W = gs, gx
		gzClosers = append(gzClosers, gs, gx)
	}

	opts := campus.ReplayOptions{MaxConnsPerObservation: *maxConns, JSON: f == analysis.FormatJSON}
	if err := campus.Replay(scenario.Observations, sslW, x509W, opts); err != nil {
		return err
	}
	for _, g := range gzClosers {
		if err := g.Close(); err != nil {
			return err
		}
	}

	tot := scenario.Totals()
	fmt.Printf("generated %d chain observations (seed=%d scale=%g)\n", len(scenario.Observations), *seed, *scale)
	for cat, n := range tot.Chains {
		fmt.Printf("  %-20s %8d chains  %12d connections\n", cat.String(), n, tot.Conns[cat])
	}
	fmt.Printf("wrote %s and %s\n", sslPath, x509Path)
	return nil
}
