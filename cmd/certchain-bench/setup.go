package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"certchains/internal/analysis"
	"certchains/internal/campus"
	"certchains/internal/lint"
)

// Workload kinds: which path a workload's own timed run takes.
const (
	kindBatch  = "batch"
	kindStream = "stream"
	kindServe  = "serve"
)

// workload is one input shape plus the path that consumes it. The names are
// fixed; issues and BENCHMARK.json refer to them.
type workload struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	// JSON selects ND-JSON logs (the other decoder) instead of TSV.
	JSON bool `json:"json,omitempty"`
	// Scale is campus.Config.Scale; Cap is the ssl.log rows written per
	// observation (ReplayOptions.MaxConnsPerObservation).
	Scale float64 `json:"scale"`
	Cap   int64   `json:"cap"`
	// Lint sets Pipeline.Linter to profile "paper".
	Lint bool `json:"lint,omitempty"`
}

// The four workloads. Sizes are the issue's; README.md says why each exists.
var workloads = []workload{
	{Name: "batch-tsv-conns", Kind: kindBatch, Scale: 0.005, Cap: 256},
	{Name: "batch-json-chains", Kind: kindBatch, JSON: true, Scale: 0.05, Cap: 4, Lint: true},
	{Name: "stream-tsv-drain", Kind: kindStream, Scale: 0.002, Cap: 256},
	{Name: "serve-report-mixed", Kind: kindServe, Scale: 0.002, Cap: 256},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// maxRowsPerObservation is the generator guard: campus.Replay interpolates
// ts = First + i*int64(span)/(conns-1), which overflows int64 for i > ~292
// on a 12-month span and writes connections ahead of their certificates
// (README.md, "Known limits"). No workload may ask for more rows than this.
const maxRowsPerObservation = 256

// Cut granularity. The serving feeder appends one feedRecords cut per tick;
// the streaming drain appends drainCuts of them per PollOnce (2,048 records).
const (
	feedRecords = 512
	drainCuts   = 4
)

// Ring shape for the streaming and serving paths: the capture span divided
// into ringIntervals windows, ringBuckets of them live.
const (
	ringIntervals = 12
	ringBuckets   = 4
)

// childProcs is GOMAXPROCS, pipeline workers and ring workers in every
// child: the reference box has two cores.
const childProcs = 2

// cut is a consistent prefix of both logs: every connection in ssl.log[:SSL]
// has its certificates in x509.log[:X509]. Offsets are Replay flush
// boundaries, so both fall on line ends. Records is cumulative.
type cut struct {
	SSL     int64 `json:"ssl"`
	X509    int64 `json:"x509"`
	Records int64 `json:"records"`
}

// inputs is everything a child needs to find and size the generated logs.
type inputs struct {
	Workload  workload `json:"workload"`
	Seed      int64    `json:"seed"`
	SSL       string   `json:"ssl"`
	X509      string   `json:"x509"`
	SSLRows   int64    `json:"ssl_rows"`
	X509Rows  int64    `json:"x509_rows"`
	SSLBytes  int64    `json:"ssl_bytes"`
	X509Bytes int64    `json:"x509_bytes"`
	Cuts      []cut    `json:"cuts"`
	// SpanNS is the log time between the first and last record.
	SpanNS int64 `json:"span_ns"`
}

// rows is the data rows of both logs up to the last cut.
func (in *inputs) rows() int64  { return in.Cuts[len(in.Cuts)-1].Records }
func (in *inputs) bytes() int64 { return in.SSLBytes + in.X509Bytes }

// prefix is the capture cut short after at most maxRows rows (and at least
// two cuts, so that a serving window has something to preload and to feed).
// Only the streaming paths, which read by cuts, may be handed a prefix.
func (in *inputs) prefix(maxRows int64) *inputs {
	n := 2
	for n < len(in.Cuts) && in.Cuts[n].Records <= maxRows {
		n++
	}
	if n >= len(in.Cuts) {
		return in
	}
	short := *in
	short.Cuts = in.Cuts[:n]
	return &short
}

// open opens both logs for reading.
func (in *inputs) open() (ssl, x509 *os.File, err error) {
	if ssl, err = os.Open(in.SSL); err != nil {
		return nil, nil, err
	}
	if x509, err = os.Open(in.X509); err != nil {
		ssl.Close()
		return nil, nil, err
	}
	return ssl, x509, nil
}

func (in *inputs) format() analysis.Format {
	if in.Workload.JSON {
		return analysis.FormatJSON
	}
	return analysis.FormatTSV
}

// ringInterval is the window width of the streaming paths.
func (in *inputs) ringInterval() time.Duration {
	d := time.Duration(in.SpanNS / ringIntervals)
	if d <= 0 {
		d = time.Hour
	}
	return d
}

// generate builds the scenario of a workload. Children call it again,
// untimed, because the pipeline's trust stores, CT log and classifier are
// not serializable — and because a fresh classifier is the point.
func generate(w workload, seed int64) (*campus.Scenario, error) {
	cfg := campus.DefaultConfig()
	cfg.Seed = seed
	cfg.Scale = w.Scale
	return campus.Generate(cfg)
}

// newPipeline wires a pipeline exactly as certchain-analyze does.
func newPipeline(w workload, sc *campus.Scenario) *analysis.Pipeline {
	p := analysis.FromScenario(sc)
	p.Workers = childProcs
	if w.Lint {
		p.Linter = lint.New(sc.Classifier, lint.Config{Now: sc.End(), Profile: lint.ProfilePaper})
	}
	return p
}

// countWriter counts the bytes handed to it, which after a Replay flush is
// the file offset of a line end.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// setup generates the scenario, writes both logs into dir in replay order
// while recording the cut index, then scans what it wrote (row counts,
// timestamp order). Its wall time is setup_s.
func setup(w workload, seed int64, dir string) (*inputs, *campus.Scenario, error) {
	if w.Cap <= 0 || w.Cap > maxRowsPerObservation {
		return nil, nil, fmt.Errorf("workload %s: %d rows per observation is outside (0, %d]", w.Name, w.Cap, maxRowsPerObservation)
	}
	sc, err := generate(w, seed)
	if err != nil {
		return nil, nil, err
	}
	in := &inputs{
		Workload: w,
		Seed:     seed,
		SSL:      filepath.Join(dir, "ssl.log"),
		X509:     filepath.Join(dir, "x509.log"),
	}
	sslF, err := os.Create(in.SSL)
	if err != nil {
		return nil, nil, err
	}
	defer sslF.Close()
	x509F, err := os.Create(in.X509)
	if err != nil {
		return nil, nil, err
	}
	defer x509F.Close()
	sslBuf, x509Buf := bufio.NewWriterSize(sslF, 1<<20), bufio.NewWriterSize(x509F, 1<<20)
	sslW, x509W := &countWriter{w: sslBuf}, &countWriter{w: x509Buf}

	var records int64
	var first, last time.Time
	err = campus.Replay(sc.Observations, sslW, x509W, campus.ReplayOptions{
		MaxConnsPerObservation: w.Cap,
		JSON:                   w.JSON,
		BatchRecords:           feedRecords,
		// Pace runs before each record is written; Replay has just flushed
		// both writers whenever the count so far is a multiple of
		// BatchRecords, so the byte counts are a consistent cut.
		Pace: func(ts time.Time) error {
			if records == 0 {
				first = ts
			} else if records%feedRecords == 0 {
				in.Cuts = append(in.Cuts, cut{SSL: sslW.n, X509: x509W.n, Records: records})
			}
			last = ts
			records++
			return nil
		},
	})
	if err != nil {
		return nil, nil, err
	}
	if err := sslBuf.Flush(); err != nil {
		return nil, nil, err
	}
	if err := x509Buf.Flush(); err != nil {
		return nil, nil, err
	}
	// Pace records a cut only when a further record follows it, so the last
	// one, which also takes in the footer, is always still to add.
	in.Cuts = append(in.Cuts, cut{SSL: sslW.n, X509: x509W.n, Records: records})
	in.SSLBytes, in.X509Bytes = sslW.n, x509W.n
	in.SpanNS = last.Sub(first).Nanoseconds()

	if in.SSLRows, err = scanLog(in.SSL); err != nil {
		return nil, nil, err
	}
	if in.X509Rows, err = scanLog(in.X509); err != nil {
		return nil, nil, err
	}
	if in.SSLRows+in.X509Rows != records {
		return nil, nil, fmt.Errorf("setup: wrote %d records, logs hold %d data rows", records, in.SSLRows+in.X509Rows)
	}
	return in, sc, nil
}

// scanLog counts a log's data rows and fails unless their timestamps never
// decrease: the streaming joiner releases a connection once the certificate
// stream has passed its timestamp, so a log out of time order turns into
// orphans that would be blamed on the program under test.
func scanLog(path string) (rows int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	prev := 0.0
	jsonTS := []byte(`{"ts":`)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		rows++
		field, end := line, byte('\t')
		if bytes.HasPrefix(line, jsonTS) {
			field, end = line[len(jsonTS):], ','
		}
		if i := bytes.IndexByte(field, end); i >= 0 {
			field = field[:i]
		}
		ts, err := strconv.ParseFloat(string(field), 64)
		if err != nil {
			return 0, fmt.Errorf("%s row %d: timestamp %q: %w", path, rows, field, err)
		}
		if ts < prev {
			return 0, fmt.Errorf("%s row %d: timestamp %v after %v: log is not in time order", path, rows, ts, prev)
		}
		prev = ts
	}
	return rows, sc.Err()
}
