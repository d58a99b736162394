// Command certchain-bench is the repository's benchmark: Zeek log bytes in,
// report bytes out, over the batch, streaming and serving paths, with a
// traced run that attributes the time to each layer. README.md in this
// directory is the manual; BENCHMARK.json at the repository root is the
// contract (metric names, units, directions, bounds).
//
//	go run ./cmd/certchain-bench                       # all four workloads
//	go run ./cmd/certchain-bench -workload batch-tsv-conns -seed 2 -seconds 15 -trace 0
//	go run ./cmd/certchain-bench -trace traces/ -out set1.json
//	go run ./cmd/certchain-bench -compare set1.json set2.json
//
// Every timed repetition runs in a child process (this binary re-executed
// with -child), because chain.Classifier memoizes across passes inside one
// process; see README.md, "Why repetitions are child processes".
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// runDeadline bounds one invocation. The driver allows a run 180 s.
const runDeadline = 170 * time.Second

func main() {
	if len(os.Args) == 3 && os.Args[1] == "-child" {
		os.Exit(childMain(os.Args[2]))
	}
	os.Exit(run())
}

func run() int {
	var (
		only    = flag.String("workload", "", "run only this workload and end with the driver's one-line JSON result (default: all four, as a table)")
		seed    = flag.Int64("seed", 1, "scenario seed; the same seed gives the same logs")
		seconds = flag.Float64("seconds", 15, "measured time per workload")
		trace   = flag.String("trace", "0", "0: end-to-end metrics from untraced children; 1: the traced run's per-layer metrics; DIR: as 1, keeping one Chrome trace per workload in DIR")
		out     = flag.String("out", "", "also write every metric's median, quartiles and sample count to this JSON file (input to -compare)")
		compare = flag.Bool("compare", false, "compare two -out files given as arguments against BENCHMARK.json's bounds")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "certchain-bench: -compare needs two result files")
			return 2
		}
		return compareFiles("BENCHMARK.json", flag.Arg(0), flag.Arg(1))
	}

	selected := workloads
	if *only != "" {
		w, ok := workloadByName(*only)
		if !ok {
			fmt.Fprintf(os.Stderr, "certchain-bench: unknown workload %q\n", *only)
			return 2
		}
		selected = []workload{w}
	}
	opts := runOptions{Seed: *seed, Seconds: *seconds}
	switch *trace {
	case "0", "":
		opts.EndToEnd = true
	case "1":
		opts.Traced = true
	default:
		opts.EndToEnd, opts.Traced, opts.TraceDir = true, true, *trace
		if err := os.MkdirAll(opts.TraceDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "certchain-bench:", err)
			return 1
		}
	}

	// SIGINT/SIGTERM cancel the context: children are killed through
	// exec.CommandContext and the deferred cleanup removes the temp dir.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The temp dir lives under the working directory: the driver's checkout
	// is the only place the benchmark may write.
	tmp, err := os.MkdirTemp(".", ".certchain-bench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "certchain-bench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	opts.TmpDir = tmp

	set := resultSet{Seed: *seed, Seconds: *seconds}
	exit := 0
	for _, w := range selected {
		wctx, cancel := context.WithTimeout(ctx, runDeadline)
		res, err := runWorkload(wctx, w, opts)
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "certchain-bench: %s: %v\n", w.Name, err)
			return 1
		}
		res.print(os.Stdout)
		if !res.Correct {
			exit = 1
		}
		set.Workloads = append(set.Workloads, res)
	}
	if *out != "" {
		data, err := json.MarshalIndent(set, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "certchain-bench:", err)
			return 1
		}
	}
	if *only != "" {
		// The driver reads the last line of standard output.
		line, err := json.Marshal(set.Workloads[0].driverLine(!opts.EndToEnd))
		if err != nil {
			fmt.Fprintln(os.Stderr, "certchain-bench:", err)
			return 1
		}
		fmt.Println(string(line))
	}
	return exit
}
