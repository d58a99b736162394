// Command certchain-ingestd is the streaming counterpart of
// certchain-analyze: a long-running daemon that tails live Zeek
// ssl.log/x509.log files, joins the two streams incrementally, folds closed
// time windows into an analysis ring, and serves windowed reports plus
// operational metrics over HTTP.
//
//	certchain-ingestd -ssl /var/zeek/ssl.log -x509 /var/zeek/x509.log \
//	    -seed 1 -snapshot /var/lib/certchain/ingest.snapshot
//
// The seed/scale pair rebuilds the same trust stores, CT log, and
// interception registry the logs were generated against, exactly as
// certchain-analyze's log-file mode does. With -snapshot the daemon persists
// its full state (tail offsets, join buffer, open windows, analysis ring)
// periodically and on shutdown, and resumes from it on restart without
// re-reading history.
//
// Admin surface (see internal/ingest):
//
//	GET /report?window=1h|24h|all&format=text|json
//	GET /healthz
//	GET /metrics
//	GET /debug/pprof/...
//
// -demo replays a generated campus capture into the tailed files at -speed×
// log time, so the whole loop can be watched live without a Zeek install:
//
//	certchain-ingestd -demo -addr 127.0.0.1:8844
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"certchains/internal/analysis"
	"certchains/internal/campus"
	"certchains/internal/ingest"
	"certchains/internal/lint"
	"certchains/internal/obs"
	"certchains/internal/resilience"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "certchain-ingestd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		sslPath    = flag.String("ssl", "", "path to the live ssl.log")
		x5Path     = flag.String("x509", "", "path to the live x509.log")
		format     = flag.String("format", "tsv", "log format: tsv or json")
		addr       = flag.String("addr", "127.0.0.1:8844", "admin listen address")
		seed       = flag.Int64("seed", 1, "scenario seed for the enrichment stores")
		scale      = flag.Float64("scale", 0.01, "fraction of paper-scale volume")
		window     = flag.Duration("window", analysis.DefaultWindowInterval, "analysis window interval")
		buckets    = flag.Int("buckets", analysis.DefaultWindowBuckets, "live windows kept before spilling to the all-time aggregate")
		certCap    = flag.Int("cert-cap", 0, "join certificate index cap (0 = default, negative = unbounded)")
		pendingCap = flag.Int("pending-cap", 0, "join pending-connection cap (0 = default, negative = unbounded)")
		snapshot   = flag.String("snapshot", "", "state snapshot path (enables resume across restarts)")
		snapEvery  = flag.Duration("snapshot-every", 30*time.Second, "periodic snapshot interval (negative disables)")
		poll       = flag.Duration("poll", 500*time.Millisecond, "tail poll interval")
		ioRetries  = flag.Int("io-retries", 3, "retries per poll/snapshot after a transient I/O failure")
		lintPro    = flag.String("lint", "", "lint every chain; value is the check profile (paper, strict, all)")
		demo       = flag.Bool("demo", false, "replay a generated capture into the tailed files")
		speed      = flag.Float64("speed", 500000, "demo replay speed: log seconds per wall second")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this path (stopped at shutdown)")
		memProfile = flag.String("memprofile", "", "write a heap profile to this path at shutdown")
		logFormat  = flag.String("log-format", "text", "log format: text or json")
		logLevel   = flag.String("log-level", "info", "log level: debug, info, warn, error")
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

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				logger.Error("heap profile", "err", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				logger.Error("heap profile", "err", err)
			}
		}()
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

	isJSON := false
	switch *format {
	case "tsv":
	case "json":
		isJSON = true
	default:
		return fmt.Errorf("unknown format %q (tsv or json)", *format)
	}

	if *demo {
		if *sslPath == "" || *x5Path == "" {
			dir, err := os.MkdirTemp("", "certchain-ingestd-demo-")
			if err != nil {
				return err
			}
			*sslPath = filepath.Join(dir, "ssl.log")
			*x5Path = filepath.Join(dir, "x509.log")
			logger.Info("demo logs", "dir", dir)
		}
		go func() {
			if err := runDemo(ctx, logger, scenario, *sslPath, *x5Path, isJSON, *speed); err != nil && ctx.Err() == nil {
				logger.Error("demo replay", "err", err)
			}
		}()
	}
	if *sslPath == "" || *x5Path == "" {
		return fmt.Errorf("need both -ssl and -x509 (or -demo)")
	}

	ioPolicy := resilience.DefaultPolicy()
	ioPolicy.MaxAttempts = 1 + *ioRetries
	ing, resumed, err := ingest.RestoreOrNew(pipeline, ingest.Config{
		SSLPath:      *sslPath,
		X509Path:     *x5Path,
		JSON:         isJSON,
		Window:       analysis.WindowConfig{Interval: *window, Buckets: *buckets},
		CertCap:      *certCap,
		PendingCap:   *pendingCap,
		SnapshotPath: *snapshot,
		Retry:        ioPolicy,
		AccessLog:    logger,
	})
	if err != nil {
		return err
	}
	if resumed {
		logger.Info("resumed from snapshot", "path", *snapshot, "observations", ing.Stats().Observations)
	}

	d := ingest.NewDaemon(ing, ingest.DaemonConfig{
		Addr:          *addr,
		Poll:          *poll,
		SnapshotEvery: *snapEvery,
		Retry:         ioPolicy,
		// The daemon speaks printf; fold its lines into the structured
		// logger's message field.
		Logf: func(format string, args ...any) { logger.Info(fmt.Sprintf(format, args...)) },
	})
	return d.Run(ctx)
}

// runDemo replays the scenario into the tailed log files, pacing records so
// that `speed` log seconds pass per wall second. The writers flush in small
// batches, so the daemon sees the capture arrive live.
func runDemo(ctx context.Context, logger *slog.Logger, s *campus.Scenario, sslPath, x5Path string, isJSON bool, speed float64) error {
	if speed <= 0 {
		return fmt.Errorf("demo speed must be positive")
	}
	sslF, err := os.Create(sslPath)
	if err != nil {
		return err
	}
	defer sslF.Close()
	x5F, err := os.Create(x5Path)
	if err != nil {
		return err
	}
	defer x5F.Close()

	var wallStart, logStart time.Time
	pace := func(ts time.Time) error {
		if logStart.IsZero() {
			logStart, wallStart = ts, time.Now()
			return nil
		}
		due := wallStart.Add(time.Duration(float64(ts.Sub(logStart)) / speed))
		wait := time.Until(due)
		if wait <= 0 {
			return ctx.Err()
		}
		t := time.NewTimer(wait)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
			return nil
		}
	}
	logger.Info("demo: replaying capture", "observations", len(s.Observations), "speed", speed)
	err = campus.Replay(s.Observations, sslF, x5F, campus.ReplayOptions{
		MaxConnsPerObservation: 4,
		JSON:                   isJSON,
		BatchRecords:           16,
		Pace:                   pace,
	})
	if err == nil {
		logger.Info("demo: capture complete")
	}
	return err
}
