// Command certchain-coord drives the distributed analysis topology: it
// discovers Zeek log partitions, assigns them to certchain-shardd workers
// under a lease/heartbeat protocol, pulls each worker's partial state back
// as versioned canonical-JSON snapshots, and merges them into the same
// report a single process would produce — byte for byte.
//
//	certchain-coord -parts data/parts -gen 3 -local            # reference run
//	certchain-coord -parts data/parts \
//	    -workers http://127.0.0.1:9001,http://127.0.0.1:9002   # distributed
//
// -local runs every partition in-process through the identical merge path;
// the two modes emit byte-identical reports and manifest deterministic
// subsets, which `make dist-smoke` diffs. -gen N first materializes the
// seeded scenario as N partition file pairs in -parts.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"certchains/internal/analysis"
	"certchains/internal/campus"
	"certchains/internal/dist"
	"certchains/internal/lint"
	"certchains/internal/obs"
	"certchains/internal/resilience"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "certchain-coord:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		partsDir    = flag.String("parts", "", "directory of <stem>.ssl.log/<stem>.x509.log partition pairs")
		workersCSV  = flag.String("workers", "", "comma-separated certchain-shardd base URLs")
		local       = flag.Bool("local", false, "run every partition in-process instead of distributing")
		gen         = flag.Int("gen", 0, "first write the seeded scenario into -parts as this many partitions")
		seed        = flag.Int64("seed", 1, "scenario seed; must match the workers'")
		scale       = flag.Float64("scale", 0.01, "fraction of paper-scale volume; must match the workers'")
		format      = flag.String("format", "tsv", "partition log format: tsv or json")
		lintPro     = flag.String("lint", "", "lint every chain; value is the check profile (paper, strict, all); must match the workers'")
		asJSON      = flag.Bool("json", false, "emit the machine-readable JSON export instead of text")
		leaseTTL    = flag.Duration("lease", dist.DefaultLeaseTTL, "lease TTL; a partition unheard-of this long is requeued")
		poll        = flag.Duration("poll", dist.DefaultPoll, "worker status poll interval (the lease heartbeat)")
		manifest    = flag.String("manifest", "", "write a run provenance manifest to this path")
		tracePath   = flag.String("trace", "", "write the spliced cross-process Chrome trace (coordinator + worker spans) to this path")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics and /healthz on this address for the run's duration (lease, requeue, and duplicate counters)")
		logFormat   = flag.String("log-format", "text", "log format: text or json")
		logLevel    = flag.String("log-level", "info", "log level: debug, info, warn, error")
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

	if *partsDir == "" {
		return fmt.Errorf("need -parts")
	}
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

	if *gen > 0 {
		if _, err := dist.WritePartitions(scenario.Observations, *partsDir, *gen, f); err != nil {
			return err
		}
		logger.Info("wrote partitions", "dir", *partsDir, "count", *gen)
	}
	parts, err := dist.DiscoverPartitions(*partsDir)
	if err != nil {
		return err
	}
	logger.Info("discovered partitions", "count", len(parts))

	var workers []string
	for _, w := range strings.Split(*workersCSV, ",") {
		if w = strings.TrimSpace(w); w != "" {
			workers = append(workers, strings.TrimRight(w, "/"))
		}
	}
	if !*local && len(workers) == 0 {
		return fmt.Errorf("need -workers (or -local)")
	}

	tracer := obs.NewTracer()
	reg := obs.NewRegistry()
	obs.RegisterBuildInfo(reg, "certchain-coord")
	if *metricsAddr != "" {
		stopMetrics, err := serveMetrics(*metricsAddr, reg, logger)
		if err != nil {
			return err
		}
		defer stopMetrics()
	}
	coord := dist.NewCoordinator(dist.CoordConfig{
		Pipeline: pipeline,
		Workers:  workers,
		Format:   f,
		LeaseTTL: *leaseTTL,
		Poll:     *poll,
		Retry:    resilience.DefaultPolicy(),
		Registry: reg,
		Tracer:   tracer,
		Logf:     func(format string, args ...any) { logger.Info(fmt.Sprintf(format, args...)) },
	})

	var res *dist.Result
	if *local {
		res, err = coord.RunLocal(ctx, parts)
	} else {
		res, err = coord.Run(ctx, parts)
	}
	if err != nil {
		return err
	}
	logger.Info("run complete",
		"partitions", res.Partitions, "observations", res.Observations,
		"requeues", res.Requeues, "duplicates", res.Duplicates)
	if res.WorkerMetrics != nil {
		// Fold the workers' shards into the coordinator's registry: a final
		// -metrics-addr scrape shows the whole topology's counters, not just
		// the lease protocol's.
		if err := reg.Merge(res.WorkerMetrics); err != nil {
			logger.Warn("merge worker metrics", "err", err)
		}
	}

	if *tracePath != "" {
		tf, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		if err := res.WriteTrace(tf, tracer); err != nil {
			tf.Close()
			return err
		}
		if err := tf.Close(); err != nil {
			return err
		}
		logger.Info("wrote trace", "path", *tracePath,
			"run_id", res.RunID, "worker_span_sets", len(res.PartitionTraces))
	}

	var reportBytes []byte
	if *asJSON {
		reportBytes, err = res.Report.JSON()
		if err != nil {
			return err
		}
	} else {
		reportBytes = []byte(res.Report.Render())
	}
	os.Stdout.Write(reportBytes)
	if *asJSON {
		fmt.Println()
	}

	if *manifest != "" {
		man := &obs.Manifest{
			Tool:         "certchain-coord",
			Seed:         *seed,
			Scale:        *scale,
			Workers:      max(len(workers), 1),
			Flags:        setFlags(),
			Inputs:       res.Inputs,
			Stages:       tracer.Stages(),
			ReportSHA256: obs.SHA256Hex(reportBytes),
			WallNS:       tracer.WallNS(),
			Build:        obs.Build(),
		}
		if err := man.WriteFile(*manifest); err != nil {
			return err
		}
		logger.Info("wrote manifest", "path", *manifest, "report_sha256", man.ReportSHA256)
	}
	return nil
}

func setFlags() map[string]string {
	flags := make(map[string]string)
	flag.Visit(func(f *flag.Flag) { flags[f.Name] = f.Value.String() })
	return flags
}

// serveMetrics exposes the coordinator's registry while the run is in
// flight — the lease, requeue, and duplicate counters are scrapeable live
// instead of vanishing with the process. The surface rides the shared
// serving middleware like every other daemon's.
func serveMetrics(addr string, reg *obs.Registry, logger *slog.Logger) (func(), error) {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/healthz", obs.HealthzHandler(reg, nil, nil))
	h := obs.NewHTTPMetrics(reg).Middleware(mux, logger, "/metrics", "/healthz")
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics listener: %w", err)
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	logger.Info("metrics up", "addr", fmt.Sprintf("http://%s/metrics", ln.Addr()))
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}, nil
}
