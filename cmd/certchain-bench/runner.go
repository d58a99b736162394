package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"certchains/internal/analysis"
	"certchains/internal/campus"
)

// runOptions is one workload run's settings.
type runOptions struct {
	Seed    int64
	Seconds float64
	// EndToEnd selects the untraced repetitions (end-to-end metrics), Traced
	// the traced run (per-layer metrics); either or both.
	EndToEnd, Traced bool
	// TraceDir, when set, keeps the workload's Chrome trace.
	TraceDir string
	// TmpDir is the invocation's temp dir; the workload gets a
	// subdirectory.
	TmpDir string
	// ProbeSeconds overrides the probes' serving window (tests).
	ProbeSeconds float64
	// Corrupt, when set, is applied to the generated inputs before any
	// child runs (tests damage a log line with it).
	Corrupt func(*inputs) error
}

// setupRounds is how many times an untraced run sets up: setup_s is their
// median.
const setupRounds = 3

// defaultProbeSeconds is the serving window the layer probes use on
// workloads that are not themselves a serving run.
const defaultProbeSeconds = 4

// runWorkload sets up the inputs, computes the reference outputs, runs the
// children and assembles the result.
func runWorkload(ctx context.Context, w workload, opts runOptions) (*workloadResult, error) {
	dir := filepath.Join(opts.TmpDir, w.Name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	res := &workloadResult{Name: w.Name}

	rounds := 1
	if opts.EndToEnd {
		rounds = setupRounds // setup_s is an end-to-end metric
	}
	var in *inputs
	var sc *campus.Scenario
	var setupS []float64
	for i := 0; i < rounds; i++ {
		// Start each round from a collected heap, so that the previous
		// round's scenario does not make this one's allocations dearer.
		in, sc = nil, nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if in, sc, err = setup(w, opts.Seed, dir); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	if opts.Corrupt != nil {
		if err := opts.Corrupt(in); err != nil {
			return nil, err
		}
	}

	r := &runner{ctx: ctx, in: in, p: newPipeline(w, sc), dir: dir, opts: opts, res: res, series: make(map[string][]float64)}
	if err := r.reference(); err != nil {
		return nil, err
	}
	if opts.EndToEnd {
		if err := r.repetitions(); err != nil {
			return nil, err
		}
		res.EndToEnd = map[string]stat{
			"setup_s":             summarise("s", setupS),
			"rows_per_s":          summarise("rows/s", r.series["rows_per_s"]),
			"allocs_per_row":      summarise("allocs/row", r.series["allocs_per_row"]),
			"alloc_bytes_per_row": summarise("B/row", r.series["alloc_bytes_per_row"]),
			"report_p50_ms":       summarise("ms", r.series["report_ms"]),
			"peak_rss_mb":         summarise("MB", r.series["peak_rss_mb"]),
		}
		res.seal(endToEnd, res.EndToEnd)
	}
	if opts.Traced {
		if err := r.traced(); err != nil {
			return nil, err
		}
		res.seal(perLayer, res.PerLayer)
	}
	return res, nil
}

// runner holds one workload run's state in the parent.
type runner struct {
	ctx context.Context
	in  *inputs
	// p computes the reference outputs; only their bytes matter, so unlike
	// the children it may keep its classifier warm.
	p    *analysis.Pipeline
	dir  string
	opts runOptions
	res  *workloadResult
	// series pools the children's samples by name.
	series map[string][]float64
	// refText and refJSON digest the reference report of the full input.
	refText, refJSON string
	children         int
}

// reference computes the bytes the children's reports must equal, in this
// process and untimed: for the batch path one sequential pass over the
// loaded observations, for the streaming path a single-poll drain.
func (r *runner) reference() (err error) {
	switch r.in.Workload.Kind {
	case kindBatch:
		sslF, x509F, err := r.in.open()
		if err != nil {
			return err
		}
		defer sslF.Close()
		defer x509F.Close()
		obs, err := analysis.LoadFormat(r.in.format(), sslF, x509F)
		if err != nil {
			return err
		}
		text, js, err := renderBoth(r.p.RunParallel(obs, 1))
		if err != nil {
			return err
		}
		r.refText, r.refJSON = sha(text), sha(js)
	case kindStream:
		r.refText, r.refJSON, err = referenceDrain(r.in, r.p, r.dir, len(r.in.Cuts))
	case kindServe:
		// How far the feeder gets is known only after the window.
	}
	return err
}

// check books a child's operations and compares its report with the
// reference.
func (r *runner) check(c *childResult) error {
	r.res.book(c.tally)
	refText, refJSON := r.refText, r.refJSON
	if r.in.Workload.Kind == kindServe {
		var err error
		if refText, refJSON, err = referenceDrain(r.in, r.p, r.dir, c.CutsFed); err != nil {
			return err
		}
	}
	r.res.Attempted++
	if c.TextSHA != refText || c.JSONSHA != refJSON {
		r.res.fail(1, "report bytes differ from the reference (text %.12s vs %.12s, JSON %.12s vs %.12s)",
			c.TextSHA, refText, c.JSONSHA, refJSON)
	}
	return nil
}

// repetitions runs untraced children until the measured time is used up: a
// batch pass or a drain each, or one serving window as long as the whole
// run.
func (r *runner) repetitions() error {
	budget := time.Duration(r.opts.Seconds * float64(time.Second))
	start := time.Now()
	var last time.Duration
	for first := true; first || time.Since(start)+last <= budget; first = false {
		t0 := time.Now()
		c, err := r.child(modeRun, "")
		if err != nil {
			return err
		}
		last = time.Since(t0)
		if err := r.check(c); err != nil {
			return err
		}
		for name, xs := range c.Series {
			r.series[name] = append(r.series[name], xs...)
		}
		if r.in.Workload.Kind == kindServe {
			break
		}
	}
	return nil
}

// traced runs the profile child and assembles the per-layer metrics. The
// tracing overhead compares its traced run with the untraced repetitions, or
// with one untraced child run for the purpose when there were none.
func (r *runner) traced() error {
	untraced := r.series["rows_per_s"]
	if len(untraced) == 0 {
		plain, err := r.child(modeRun, "")
		if err != nil {
			return err
		}
		if err := r.check(plain); err != nil {
			return err
		}
		untraced = plain.Series["rows_per_s"]
	}
	tracePath := filepath.Join(r.dir, "trace.json")
	if r.opts.TraceDir != "" {
		tracePath = filepath.Join(r.opts.TraceDir, r.in.Workload.Name+".trace.json")
	}
	prof, err := r.child(modeProfile, tracePath)
	if err != nil {
		return err
	}
	if err := r.check(prof); err != nil {
		return err
	}
	// Same run, same inputs, spans on: the slowdown is what tracing costs.
	prof.Layers["harness.trace_overhead_pct"] = 100 * (percentile(untraced, 0.5)/percentile(prof.Series["rows_per_s"], 0.5) - 1)

	units := make(map[string]string, len(perLayer))
	for _, d := range perLayer {
		units[d.Name] = d.Unit
	}
	r.res.PerLayer = make(map[string]stat, len(prof.Layers))
	for name, v := range prof.Layers {
		r.res.PerLayer[name] = stat{Unit: units[name], Median: v, Q1: v, Q3: v, N: 1}
	}
	return nil
}

// child re-executes this binary on a job file and parses its one-line
// result.
func (r *runner) child(mode, tracePath string) (*childResult, error) {
	r.children++
	outDir := filepath.Join(r.dir, fmt.Sprintf("child-%d", r.children))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(outDir)
	probe := r.opts.ProbeSeconds
	if probe == 0 {
		probe = defaultProbeSeconds
	}
	data, err := json.Marshal(job{
		Inputs: *r.in, Mode: mode, Rep: r.children, Seconds: r.opts.Seconds, ProbeSeconds: probe,
		OutDir: outDir, TracePath: tracePath,
	})
	if err != nil {
		return nil, err
	}
	jobPath := filepath.Join(outDir, "job.json")
	if err := os.WriteFile(jobPath, data, 0o644); err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(r.ctx, exe, "-child", jobPath)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", childProcs))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child %d (%s): %w", r.children, mode, err)
	}
	var c childResult
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &c); err != nil {
		return nil, fmt.Errorf("child %d (%s): result: %w", r.children, mode, err)
	}
	return &c, nil
}
