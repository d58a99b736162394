// Command certchain-shardd is the distributed topology's worker: a daemon
// that ingests assigned Zeek log partitions through the same loaders and
// sharded pipeline certchain-analyze uses, and serves the resulting partial
// analysis state as versioned canonical-JSON snapshots over HTTP.
//
//	certchain-shardd -addr 127.0.0.1:9001 -seed 1 -scale 0.01
//
// The seed/scale pair must match the coordinator's: partial state references
// analyses both sides recompute identically. Surface (see internal/dist):
//
//	POST /assign                  sealed partition assignment
//	GET  /status                  sealed status — the coordinator's heartbeat
//	GET  /partial?partition=ID    sealed partial state (404 until done)
//	GET  /healthz
//	GET  /metrics
//
// -throttle holds each observation for the given duration — the chaos knob
// the kill/requeue suite uses to keep a partition open mid-ingest.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"certchains/internal/analysis"
	"certchains/internal/campus"
	"certchains/internal/dist"
	"certchains/internal/lint"
	"certchains/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "certchain-shardd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr      = flag.String("addr", "127.0.0.1:9001", "listen address")
		name      = flag.String("name", "", "worker name in status responses (default: the listen address)")
		seed      = flag.Int64("seed", 1, "scenario seed for the enrichment stores; must match the coordinator")
		scale     = flag.Float64("scale", 0.01, "fraction of paper-scale volume; must match the coordinator")
		format    = flag.String("format", "tsv", "partition log format: tsv or json")
		lintPro   = flag.String("lint", "", "lint every chain; value is the check profile (paper, strict, all); must match the coordinator")
		throttle  = flag.Duration("throttle", 0, "sleep this long before each observation (chaos/testing knob)")
		logFormat = flag.String("log-format", "text", "log format: text or json")
		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn, error")
	)
	flag.Parse()

	level, err := obs.ParseLogLevel(*logLevel)
	if err != nil {
		return err
	}
	logger, err := obs.NewLogger(os.Stderr, *logFormat, level)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	f := analysis.FormatTSV
	switch *format {
	case "tsv":
	case "json":
		f = analysis.FormatJSON
	default:
		return fmt.Errorf("unknown format %q (tsv or json)", *format)
	}

	cfg := campus.DefaultConfig()
	cfg.Seed = *seed
	cfg.Scale = *scale
	scenario, err := campus.Generate(cfg)
	if err != nil {
		return err
	}
	pipeline := analysis.FromScenario(scenario)
	if *lintPro != "" {
		pipeline.Linter = lint.New(scenario.Classifier, lint.Config{
			Now:     scenario.End(),
			Profile: *lintPro,
		})
	}

	reg := obs.NewRegistry()
	obs.RegisterBuildInfo(reg, "certchain-shardd")
	workerName := *name
	if workerName == "" {
		workerName = *addr
	}
	worker := dist.NewWorker(dist.WorkerConfig{
		Name:      workerName,
		Pipeline:  pipeline,
		Format:    f,
		Registry:  reg,
		Throttle:  *throttle,
		AccessLog: logger,
		Logf:      func(format string, args ...any) { logger.Info(fmt.Sprintf(format, args...)) },
	})
	defer worker.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: worker.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	logger.Info("shard worker up", "name", workerName, "addr", fmt.Sprintf("http://%s", ln.Addr()))

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	logger.Info("shutting down")
	shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}
