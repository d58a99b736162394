// Command obs-check validates observability artifacts from the shell — the
// CI smoke jobs' single entry point for every schema gate the obs package
// defines. Each flag names an artifact; all given artifacts must pass or
// the command exits non-zero naming the first failure.
//
//	obs-check -trace run.trace.json -min-procs 3 -stages dist-ingest,dist-merge,finalize
//	obs-check -manifest run.manifest.json
//	obs-check -exposition metrics.prom
//
// -trace runs obs.ValidateSplicedChromeTrace: structural Chrome trace-event
// checks, the required stage set, and (with -min-procs > 1) spans from at
// least that many distinct processes — how dist-smoke proves the spliced
// cross-process artifact really carries coordinator and worker tracks.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"certchains/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "obs-check:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		trace      = flag.String("trace", "", "validate this Chrome trace-event file")
		minProcs   = flag.Int("min-procs", 1, "with -trace: require spans from at least this many distinct processes")
		stagesCSV  = flag.String("stages", "", "with -trace: comma-separated stages that must each have at least one span")
		manifest   = flag.String("manifest", "", "validate this run provenance manifest")
		exposition = flag.String("exposition", "", "validate this Prometheus exposition text file")
	)
	flag.Parse()
	if *trace == "" && *manifest == "" && *exposition == "" {
		flag.Usage()
		return fmt.Errorf("nothing to check: give -trace, -manifest, or -exposition")
	}

	checks := []struct {
		path  string
		check func([]byte) error
	}{
		{*trace, func(data []byte) error {
			var stages []string
			for _, s := range strings.Split(*stagesCSV, ",") {
				if s = strings.TrimSpace(s); s != "" {
					stages = append(stages, s)
				}
			}
			return obs.ValidateSplicedChromeTrace(data, *minProcs, stages...)
		}},
		{*manifest, obs.ValidateManifest},
		{*exposition, obs.ValidateExposition},
	}
	for _, c := range checks {
		if c.path == "" {
			continue
		}
		data, err := os.ReadFile(c.path)
		if err != nil {
			return err
		}
		if err := c.check(data); err != nil {
			return fmt.Errorf("%s: %w", c.path, err)
		}
		fmt.Printf("obs-check: %s ok\n", c.path)
	}
	return nil
}
