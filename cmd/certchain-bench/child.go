package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"certchains/internal/analysis"
	"certchains/internal/campus"
	"certchains/internal/ingest"
)

// Child modes.
const (
	modeRun     = "run"     // the workload's own timed run, untraced
	modeProfile = "profile" // the same run traced, then the layer probes
)

// job is what the parent hands a child: a JSON file named on the command
// line.
type job struct {
	Inputs inputs `json:"inputs"`
	Mode   string `json:"mode"`
	// Rep numbers the repetition; it tags the traced run's spans.
	Rep int `json:"rep"`
	// Seconds is the serving window of a serve run.
	Seconds float64 `json:"seconds"`
	// ProbeSeconds is the serving window the layer probes use on workloads
	// that are not themselves a serving run.
	ProbeSeconds float64 `json:"probe_seconds,omitempty"`
	// OutDir is the child's private directory (report files, tailed logs).
	OutDir string `json:"out_dir"`
	// TracePath, in profile mode, receives the Chrome trace.
	TracePath string `json:"trace_path,omitempty"`
}

// childResult is the one JSON line a child prints.
type childResult struct {
	// Series holds the run's raw samples by name; the parent pools and
	// summarises them.
	Series map[string][]float64 `json:"series,omitempty"`
	// Layers holds the probes' per-layer metrics (profile mode).
	Layers map[string]float64 `json:"layers,omitempty"`
	// TextSHA and JSONSHA digest the report the run produced.
	TextSHA string `json:"text_sha,omitempty"`
	JSONSHA string `json:"json_sha,omitempty"`
	// CutsFed is how many feed cuts a serve run appended, preload included.
	CutsFed int `json:"cuts_fed,omitempty"`
	tally
}

func (r *childResult) add(name string, v float64) {
	if r.Series == nil {
		r.Series = make(map[string][]float64)
	}
	r.Series[name] = append(r.Series[name], v)
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// childMain runs one job and prints its result; a non-zero exit means the
// harness itself broke (as opposed to failed operations, which are counted).
func childMain(jobPath string) int {
	var j job
	if err := readJSON(jobPath, &j); err != nil {
		fmt.Fprintln(os.Stderr, "certchain-bench child:", err)
		return 1
	}
	runtime.GOMAXPROCS(childProcs)
	var res *childResult
	var err error
	switch j.Mode {
	case modeRun:
		res, err = runOnce(&j)
	case modeProfile:
		res, err = profile(&j)
	default:
		err = fmt.Errorf("unknown mode %q", j.Mode)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "certchain-bench child:", err)
		return 1
	}
	if rss, err := peakRSSMB(); err != nil {
		res.fail(1, "peak RSS: %v", err)
	} else {
		res.add("peak_rss_mb", rss)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "certchain-bench child:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// peakRSSMB is this process's resident-set high-water mark. It is read from
// /proc rather than getrusage: Linux carries ru_maxrss across fork and exec,
// so a child's rusage starts at its parent's size, while VmHWM belongs to
// the address space exec created.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" { // "VmHWM:  45312 kB"
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// runOnce regenerates the scenario (untimed; the classifier it builds is
// cold) and does the workload's one timed run.
func runOnce(j *job) (*childResult, error) {
	sc, err := generate(j.Inputs.Workload, j.Inputs.Seed)
	if err != nil {
		return nil, err
	}
	res := &childResult{}
	_, err = runKind(j, newPipeline(j.Inputs.Workload, sc), nil, res, nil)
	return res, err
}

// runKind does the workload's own run on its own path: a batch pass, a
// streaming drain or a serving window. The traced run passes its tracer and
// the hook it wants called on a drained ingestor, and keeps the window.
func runKind(j *job, p *analysis.Pipeline, tr *tracer, res *childResult, afterDrain func(*ingest.Ingestor, ingest.Config) error) (*serveResult, error) {
	switch j.Inputs.Workload.Kind {
	case kindBatch:
		return nil, batchPass(&j.Inputs, p, j.OutDir, tr, res)
	case kindStream:
		return nil, streamDrain(&j.Inputs, p, j.OutDir, tr, res, afterDrain)
	case kindServe:
		sr, err := serveWindow(&j.Inputs, p, j.OutDir, j.Seconds, tr, res)
		if err == nil {
			sr.endToEnd(res)
		}
		return sr, err
	}
	return nil, fmt.Errorf("unknown workload kind %q", j.Inputs.Workload.Kind)
}

// mallocs reads the process's cumulative allocation counters.
func mallocs() (count, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// batchPass is certchain-analyze's log-file mode minus scenario generation
// and input digests: open both logs, LoadFormatFunc feeding a 256-deep
// channel, the sharded accumulate, finalize, render and export, both
// written to files. AccumulateStream followed by Finalize is what
// Pipeline.RunStream does; calling them separately lets the traced run put a
// span around each. The pass is also what this path's reader waits for a
// report, so its wall time is report_ms.
func batchPass(in *inputs, p *analysis.Pipeline, outDir string, tr *tracer, res *childResult) error {
	root := tr.start("harness", "batch-pass", noParent)
	m0, b0 := mallocs()
	t0 := time.Now()

	sp := tr.start("harness", "harness.open", root)
	sslF, x509F, err := in.open()
	if err != nil {
		return err
	}
	defer sslF.Close()
	defer x509F.Close()
	tr.end(sp)

	// The loader runs beside the accumulate call, which blocks on the
	// channel until the join has finished; the load span is therefore booked
	// as a child of the accumulate span, whose self time is what remains
	// after the load: observe, hand-off and merge.
	accSpan := tr.start("analysis", "analysis.accumulate", root)
	obsCh := make(chan *campus.Observation, 256) // certchain-analyze's depth
	loadErr := make(chan error, 1)
	var conns int64
	go func() {
		defer close(obsCh)
		loadSpan := tr.startOn(1, "analysis", "analysis.load", accSpan)
		loadErr <- analysis.LoadFormatFunc(in.format(), sslF, x509F, func(o *campus.Observation) error {
			conns += o.Conns
			obsCh <- o
			return nil
		})
		tr.end(loadSpan)
	}()
	acc := p.AccumulateStream(obsCh, childProcs)
	if err := <-loadErr; err != nil {
		return err
	}
	tr.end(accSpan)

	sp = tr.start("analysis", "analysis.finalize", root)
	report := acc.Finalize()
	tr.end(sp)
	sp = tr.start("analysis", "analysis.render", root)
	text := []byte(report.Render())
	tr.end(sp)
	sp = tr.start("analysis", "analysis.export_json", root)
	js, err := report.JSON()
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.start("harness", "harness.write", root)
	if err := os.WriteFile(filepath.Join(outDir, "report.txt"), text, 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "report.json"), js, 0o644); err != nil {
		return err
	}
	tr.end(sp)
	t2 := time.Now()
	m1, b1 := mallocs()
	tr.end(root)

	pass := t2.Sub(t0).Seconds()
	res.add("rows_per_s", float64(in.rows())/pass)
	res.add("allocs_per_row", float64(m1-m0)/float64(in.rows()))
	res.add("alloc_bytes_per_row", float64(b1-b0)/float64(in.rows()))
	res.add("report_ms", pass*1e3)
	res.TextSHA, res.JSONSHA = sha(text), sha(js)
	res.Attempted += in.rows()
	// Every connection written joins, so a shortfall is rows the decoder or
	// the join dropped.
	res.fail(in.SSLRows-conns, "batch pass aggregated %d connections of %d ssl rows written", conns, in.SSLRows)
	if err := analysis.VerifyExportAbsolutes(js); err != nil {
		res.fail(1, "VerifyExportAbsolutes: %v", err)
	}
	return nil
}

// ingestConfig is the daemon configuration of the streaming paths.
func ingestConfig(in *inputs, ssl, x509 string) ingest.Config {
	return ingest.Config{
		SSLPath:  ssl,
		X509Path: x509,
		JSON:     in.Workload.JSON,
		Window: analysis.WindowConfig{
			Interval: in.ringInterval(),
			Buckets:  ringBuckets,
			Workers:  childProcs,
		},
	}
}

// appender grows a child's private copies of the logs cut by cut, the way a
// Zeek worker would, certificates before the connections that cite them.
type appender struct {
	SSL, X509  string
	srcS, srcX *os.File
	dstS, dstX *os.File
	at         cut // bytes and records appended so far
	buf        []byte
}

func newAppender(in *inputs, dir string) (*appender, error) {
	a := &appender{SSL: filepath.Join(dir, "ssl.log"), X509: filepath.Join(dir, "x509.log"), buf: make([]byte, 1<<20)}
	var err error
	if a.srcS, err = os.Open(in.SSL); err != nil {
		return nil, err
	}
	if a.srcX, err = os.Open(in.X509); err != nil {
		return nil, err
	}
	if a.dstS, err = os.Create(a.SSL); err != nil {
		return nil, err
	}
	if a.dstX, err = os.Create(a.X509); err != nil {
		return nil, err
	}
	return a, nil
}

func (a *appender) Close() {
	for _, f := range []*os.File{a.srcS, a.srcX, a.dstS, a.dstX} {
		if f != nil {
			f.Close()
		}
	}
}

// appendTo extends both copies to the cut, x509 first, and returns the
// records added.
func (a *appender) appendTo(c cut) (records int64, err error) {
	if err := a.copyRange(a.dstX, a.srcX, a.at.X509, c.X509); err != nil {
		return 0, err
	}
	if err := a.copyRange(a.dstS, a.srcS, a.at.SSL, c.SSL); err != nil {
		return 0, err
	}
	records = c.Records - a.at.Records
	a.at = c
	return records, nil
}

func (a *appender) copyRange(dst, src *os.File, from, to int64) error {
	for from < to {
		n := int64(len(a.buf))
		if to-from < n {
			n = to - from
		}
		if _, err := src.ReadAt(a.buf[:n], from); err != nil {
			return err
		}
		if _, err := dst.Write(a.buf[:n]); err != nil {
			return err
		}
		from += n
	}
	return nil
}

// finalReports is how many times a drain fetches its final report.
const finalReports = 25

// checkDrained books what a finished ingestor dropped as failed operations.
func checkDrained(st ingest.Stats, rowsFed int64, res *childResult) {
	res.Attempted += rowsFed
	res.fail(st.Joiner.Orphans, "%d orphaned connections", st.Joiner.Orphans)
	res.fail(st.Joiner.Forced, "%d connections force-drained", st.Joiner.Forced)
	res.fail(st.LateConns, "%d late connections", st.LateConns)
	res.fail(st.RecordErrs, "%d record errors", st.RecordErrs)
	parse := st.SSLTail.ParseErrs + st.X509Tail.ParseErrs
	res.fail(parse, "%d tail parse errors", parse)
	if got := st.Joiner.SSLRecords + st.Joiner.X509Records; got+parse+st.RecordErrs < rowsFed {
		res.fail(rowsFed-got-parse-st.RecordErrs, "joiner saw %d of %d rows fed", got, rowsFed)
	}
}

// finalReport renders an ingestor's all-time report both ways.
func finalReport(ing *ingest.Ingestor) (text, js []byte, err error) {
	rep := ing.Report(0)
	text = []byte(rep.Render())
	js, err = rep.JSON()
	return text, js, err
}

// streamDrain is the closed loop with a permanent backlog: append a cut,
// PollOnce, next cut; then Finish and the final report. The harness's own
// appends are outside every reported time. after, when set, is handed the
// drained ingestor before it is closed (the traced run's snapshot probe).
func streamDrain(in *inputs, p *analysis.Pipeline, outDir string, tr *tracer, res *childResult, after func(*ingest.Ingestor, ingest.Config) error) error {
	app, err := newAppender(in, outDir)
	if err != nil {
		return err
	}
	defer app.Close()
	cfg := ingestConfig(in, app.SSL, app.X509)
	ing := ingest.New(p, cfg)
	defer ing.Close()

	root := tr.start("harness", "stream-drain", noParent)
	m0, b0 := mallocs()
	var busy, appendS time.Duration
	pendingMax := 0
	for i := drainCuts - 1; ; i += drainCuts {
		if i >= len(in.Cuts) {
			i = len(in.Cuts) - 1
		}
		sp := tr.start("harness", "harness.append", root)
		t := time.Now()
		n, err := app.appendTo(in.Cuts[i])
		appendS += time.Since(t)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.start("ingest", "ingest.poll", root)
		t = time.Now()
		err = ing.PollOnce()
		d := time.Since(t)
		tr.end(sp)
		if err != nil {
			return err
		}
		busy += d
		res.add("poll_ms", d.Seconds()*1e3)
		res.add("poll_rows", float64(n))
		if tr != nil {
			// Stats takes the ingest lock and walks the ring; only the
			// traced run pays for the queue-depth sample.
			if depth := ing.Stats().JoinPending; depth > pendingMax {
				pendingMax = depth
			}
		}
		if i == len(in.Cuts)-1 {
			break
		}
	}
	sp := tr.start("ingest", "ingest.finish", root)
	t := time.Now()
	err = ing.Finish()
	finish := time.Since(t)
	tr.end(sp)
	if err != nil {
		return err
	}
	busy += finish
	m1, b1 := mallocs()

	// The drained daemon's reader: the all-time report, fetched a few times
	// over because one fetch is a short, noisy interval.
	var text, js []byte
	for i := 0; i < finalReports; i++ {
		sp = tr.start("ingest", "ingest.report", root)
		t = time.Now()
		text, js, err = finalReport(ing)
		res.add("report_ms", time.Since(t).Seconds()*1e3)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	tr.end(root)

	res.add("rows_per_s", float64(in.rows())/busy.Seconds())
	res.add("allocs_per_row", float64(m1-m0)/float64(in.rows()))
	res.add("alloc_bytes_per_row", float64(b1-b0)/float64(in.rows()))
	res.add("finish_ms", finish.Seconds()*1e3)
	res.add("append_s", appendS.Seconds())
	res.add("pending_max", float64(pendingMax))
	res.TextSHA, res.JSONSHA = sha(text), sha(js)
	checkDrained(ing.Stats(), in.rows(), res)
	if after != nil {
		return after(ing, cfg)
	}
	return nil
}

// referenceDrain is the streaming correctness reference: a fresh ingestor
// over the first upTo feed cuts of the logs, drained by a single PollOnce
// and Finish.
func referenceDrain(in *inputs, p *analysis.Pipeline, dir string, upTo int) (textSHA, jsonSHA string, err error) {
	ssl, x509 := in.SSL, in.X509
	if upTo < len(in.Cuts) {
		dir = filepath.Join(dir, "reference") // dir itself holds the source logs
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return "", "", err
		}
		app, err := newAppender(in, dir)
		if err != nil {
			return "", "", err
		}
		_, err = app.appendTo(in.Cuts[upTo-1])
		app.Close()
		if err != nil {
			return "", "", err
		}
		ssl, x509 = app.SSL, app.X509
	}
	ing := ingest.New(p, ingestConfig(in, ssl, x509))
	defer ing.Close()
	if err := ing.PollOnce(); err != nil {
		return "", "", err
	}
	if err := ing.Finish(); err != nil {
		return "", "", err
	}
	text, js, err := finalReport(ing)
	if err != nil {
		return "", "", err
	}
	return sha(text), sha(js), nil
}
