// Equivalence suite for the streaming ingest chain: a daemon tailing the
// replayed logs must (with a window wider than the capture) reproduce the
// batch pipeline's report byte for byte, survive a snapshot/restart without
// changing a single byte of the final report, and keep its admin surface
// consistent with the state it serves.
//
// The suite lives in an external test package so it drives the ingestor
// through the same surface cmd/certchain-ingestd uses.
package ingest_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"certchains/internal/analysis"
	"certchains/internal/campus"
	"certchains/internal/certmodel"
	"certchains/internal/ingest"
	"certchains/internal/lint"
	"certchains/internal/zeek"
)

// equivScale matches the analysis equivalence suite: small enough to be
// fast, large enough to preserve every structural absolute of the paper.
const equivScale = 0.002

// giantInterval is wider than any scenario capture, so every observation
// lands in one window and the final report is comparable to the batch
// pipeline (which aggregates over the whole capture).
const giantInterval = 100 * 365 * 24 * time.Hour

var (
	scenarioMu    sync.Mutex
	scenarioCache = map[int64]*campus.Scenario{}
)

// scenario generates (and caches — generation dominates test time) the
// campus scenario for one seed.
func scenario(tb testing.TB, seed int64) *campus.Scenario {
	tb.Helper()
	scenarioMu.Lock()
	defer scenarioMu.Unlock()
	if s, ok := scenarioCache[seed]; ok {
		return s
	}
	cfg := campus.DefaultConfig()
	cfg.Seed = seed
	cfg.Scale = equivScale
	s, err := campus.Generate(cfg)
	if err != nil {
		tb.Fatalf("seed %d: %v", seed, err)
	}
	scenarioCache[seed] = s
	return s
}

// newPipeline builds the scenario pipeline with corpus linting enabled, so
// the ingest equivalence also covers the lint accumulator's streaming path.
func newPipeline(s *campus.Scenario) *analysis.Pipeline {
	p := analysis.FromScenario(s)
	p.Linter = lint.New(s.Classifier, lint.Config{Now: s.End(), Profile: lint.ProfileAll})
	return p
}

// replayBytes renders the scenario as a pair of Zeek logs in memory.
func replayBytes(tb testing.TB, s *campus.Scenario, jsonFormat bool) (ssl, x509 []byte) {
	tb.Helper()
	var sslBuf, x509Buf bytes.Buffer
	err := campus.Replay(s.Observations, &sslBuf, &x509Buf, campus.ReplayOptions{
		MaxConnsPerObservation: 4,
		JSON:                   jsonFormat,
	})
	if err != nil {
		tb.Fatalf("replay: %v", err)
	}
	return sslBuf.Bytes(), x509Buf.Bytes()
}

// writeLogs materializes the two logs in a fresh directory.
func writeLogs(tb testing.TB, dir string, ssl, x509 []byte) (sslPath, x509Path string) {
	tb.Helper()
	sslPath = filepath.Join(dir, "ssl.log")
	x509Path = filepath.Join(dir, "x509.log")
	if err := os.WriteFile(sslPath, ssl, 0o644); err != nil {
		tb.Fatal(err)
	}
	if err := os.WriteFile(x509Path, x509, 0o644); err != nil {
		tb.Fatal(err)
	}
	return sslPath, x509Path
}

func appendFile(tb testing.TB, path string, data []byte) {
	tb.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		tb.Fatal(err)
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
}

// renderings captures every externally visible form of a report.
func renderings(tb testing.TB, r *analysis.Report) (text string, js []byte) {
	tb.Helper()
	js, err := r.JSON()
	if err != nil {
		tb.Fatal(err)
	}
	return r.Render(), js
}

// batchReport is the oracle: the batch pipeline over analysis.LoadFormat of
// the very same log bytes the ingestor tails.
func batchReport(tb testing.TB, p *analysis.Pipeline, format analysis.Format, ssl, x509 []byte) *analysis.Report {
	tb.Helper()
	obs, err := analysis.LoadFormat(format, bytes.NewReader(ssl), bytes.NewReader(x509))
	if err != nil {
		tb.Fatalf("load: %v", err)
	}
	return p.RunParallel(obs, 1)
}

// span is the capture's log-time extent.
func span(s *campus.Scenario) time.Duration {
	first, last := s.Observations[0].First, s.Observations[0].Last
	for _, o := range s.Observations {
		if o.First.Before(first) {
			first = o.First
		}
		if o.Last.After(last) {
			last = o.Last
		}
	}
	return last.Sub(first)
}

// drain tails both logs to completion and declares the capture ended.
func drain(tb testing.TB, ing *ingest.Ingestor) {
	tb.Helper()
	// Two polls: the second must be a no-op (poll count must not matter).
	if err := ing.PollOnce(); err != nil {
		tb.Fatalf("poll: %v", err)
	}
	if err := ing.PollOnce(); err != nil {
		tb.Fatalf("re-poll: %v", err)
	}
	if err := ing.Finish(); err != nil {
		tb.Fatalf("finish: %v", err)
	}
}

// TestIngestorMatchesBatch is the core streaming guarantee: tail the
// replayed logs (both formats, several fold-worker widths), finish, and the
// all-time report is byte-identical to the batch pipeline over the same
// bytes.
func TestIngestorMatchesBatch(t *testing.T) {
	s := scenario(t, 1)
	for _, jsonFormat := range []bool{false, true} {
		name := "tsv"
		format := analysis.FormatTSV
		if jsonFormat {
			name, format = "json", analysis.FormatJSON
		}
		t.Run(name, func(t *testing.T) {
			ssl, x509 := replayBytes(t, s, jsonFormat)
			wantText, wantJS := renderings(t, batchReport(t, newPipeline(s), format, ssl, x509))

			for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
				t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
					sslPath, x509Path := writeLogs(t, t.TempDir(), ssl, x509)
					ing := ingest.New(newPipeline(s), ingest.Config{
						SSLPath:  sslPath,
						X509Path: x509Path,
						JSON:     jsonFormat,
						Window:   analysis.WindowConfig{Interval: giantInterval, Buckets: 4, Workers: workers},
					})
					defer ing.Close()
					drain(t, ing)

					gotText, gotJS := renderings(t, ing.Report(0))
					if gotText != wantText {
						t.Errorf("streamed report diverges from batch")
					}
					if !bytes.Equal(gotJS, wantJS) {
						t.Errorf("streamed JSON diverges from batch")
					}
					// Reporting must not mutate state.
					againText, _ := renderings(t, ing.Report(0))
					if againText != gotText {
						t.Errorf("second report differs from first")
					}

					st := ing.Stats()
					if st.Joiner.Orphans != 0 || st.Joiner.Forced != 0 {
						t.Errorf("lossy join on clean replay: %+v", st.Joiner)
					}
					if st.Observations == 0 {
						t.Errorf("no observations folded")
					}
					if st.LateConns != 0 {
						t.Errorf("late connections on a time-ordered replay: %d", st.LateConns)
					}
				})
			}
		})
	}
}

// TestIngestorMatchesBatchOnSeparatorBytes: three connections whose chains
// or server address hold '|' — chain [x|y] and chain [x, y] at 10.0.0.2,
// chain [x] at "y|10.0.0.2" — are three observations in the daemon, whose
// window aggregator keys by AppendConnKey, as in the batch load, and the two
// reports match.
func TestIngestorMatchesBatchOnSeparatorBytes(t *testing.T) {
	now := time.Unix(1700000000, 0).UTC()
	var sslBuf, x509Buf bytes.Buffer
	xw := zeek.NewLogWriter(false, io.Discard, &x509Buf, now)
	for _, id := range []string{"x|y", "x", "y"} {
		if err := xw.WriteX509(&zeek.X509Record{TS: now, ID: id, Subject: "CN=" + id, Issuer: "CN=Root"}); err != nil {
			t.Fatal(err)
		}
	}
	sw := zeek.NewLogWriter(false, &sslBuf, io.Discard, now)
	for i, c := range []struct {
		fuids  []string
		server string
	}{{[]string{"x|y"}, "10.0.0.2"}, {[]string{"x", "y"}, "10.0.0.2"}, {[]string{"x"}, "y|10.0.0.2"}} {
		err := sw.WriteSSL(&zeek.SSLRecord{TS: now.Add(time.Duration(i) * time.Second), UID: fmt.Sprintf("C%d", i),
			OrigH: "10.1.0.1", RespH: c.server, RespP: 443, Established: true, CertChainFUIDs: c.fuids})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := xw.Close(now.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(now.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	s := scenario(t, 1)
	ssl, x509 := sslBuf.Bytes(), x509Buf.Bytes()
	wantText, wantJS := renderings(t, batchReport(t, newPipeline(s), analysis.FormatTSV, ssl, x509))
	sslPath, x509Path := writeLogs(t, t.TempDir(), ssl, x509)
	ing := ingest.New(newPipeline(s), ingest.Config{
		SSLPath:  sslPath,
		X509Path: x509Path,
		Window:   analysis.WindowConfig{Interval: giantInterval, Buckets: 4, Workers: 1},
	})
	defer ing.Close()
	drain(t, ing)
	if n := ing.Stats().Observations; n != 3 {
		t.Errorf("daemon folded %d observations, want 3", n)
	}
	gotText, gotJS := renderings(t, ing.Report(0))
	if gotText != wantText || !bytes.Equal(gotJS, wantJS) {
		t.Errorf("streamed report diverges from batch")
	}
}

// TestIngestorWindowedFolding runs with an interval much smaller than the
// capture, so windows close and fold while tailing is still in progress. The
// per-window observation split changes chain counts (that is the point of
// windowing) but connection totals are additive and must match the
// single-window run exactly.
func TestIngestorWindowedFolding(t *testing.T) {
	s := scenario(t, 1)
	ssl, x509 := replayBytes(t, s, false)

	run := func(interval time.Duration) (*ingest.Ingestor, ingest.Stats) {
		sslPath, x509Path := writeLogs(t, t.TempDir(), ssl, x509)
		ing := ingest.New(newPipeline(s), ingest.Config{
			SSLPath:  sslPath,
			X509Path: x509Path,
			Window:   analysis.WindowConfig{Interval: interval, Buckets: 4, Workers: 2},
		})
		t.Cleanup(func() { ing.Close() })
		drain(t, ing)
		return ing, ing.Stats()
	}

	_, giant := run(giantInterval)
	windowed, st := run(span(s)/12 + time.Nanosecond)

	if st.FoldedWindows < 2 {
		t.Fatalf("interval 1/12 of the capture folded only %d windows", st.FoldedWindows)
	}
	if st.LiveBuckets > 4 {
		t.Errorf("ring exceeded its depth: %d live buckets", st.LiveBuckets)
	}
	if st.VisibleConns != giant.VisibleConns || st.TLS13Conns != giant.TLS13Conns {
		t.Errorf("windowed conn totals (%d visible, %d tls13) != single-window (%d, %d)",
			st.VisibleConns, st.TLS13Conns, giant.VisibleConns, giant.TLS13Conns)
	}
	for cat, cs := range giant.Categories {
		if got := st.Categories[cat]; got.Conns != cs.Conns {
			t.Errorf("category %v conns: windowed %d != single-window %d", cat, got.Conns, cs.Conns)
		}
	}
	if st.LateConns != 0 {
		t.Errorf("late connections on a time-ordered replay: %d", st.LateConns)
	}
	if text := exposition(st); !bytes.Contains([]byte(text), []byte("certchain_category_conns_total{category=")) {
		t.Errorf("metrics missing per-category samples after folding")
	}

	// Trailing windows render without disturbing the all-time view.
	allBefore, _ := renderings(t, windowed.Report(0))
	if trailing := windowed.Report(24 * time.Hour); trailing.Render() == "" {
		t.Errorf("trailing report rendered empty")
	}
	if allAfter, _ := renderings(t, windowed.Report(0)); allAfter != allBefore {
		t.Errorf("trailing report mutated the all-time view")
	}
}

// withAnomalies inserts three rows into the replayed TSV logs: ahead of
// x509.log's first row, a re-logged copy of it; at ssl.log's first line
// boundary past 35%, two copies of its first connection — one without a
// uid, which the join rejects, and one with a fresh uid and server address,
// a straggler for the capture's first window. It returns sslMid, the offset
// of the inserted connections, and x509Cut, an offset mid-way through the
// second certificate logged after the connection just before sslMid. A
// daemon that polls ssl.log up to sslMid and x509.log up to x509Cut joins
// everything it read and folds the early windows, so its next poll past
// sslMid counts the straggler late.
func withAnomalies(tb testing.TB, ssl, x509 []byte) (sslOut, x509Out []byte, sslMid, x509Cut int) {
	tb.Helper()
	parse := func(log []byte) (lines, fields []string, first int) {
		lines = strings.SplitAfter(string(log), "\n")
		for i, line := range lines {
			if strings.HasPrefix(line, "#fields\t") {
				fields = strings.Split(strings.TrimSpace(line), "\t")[1:]
			} else if line != "" && line[0] != '#' {
				return lines, fields, i
			}
		}
		tb.Fatal("log has no data row")
		return nil, nil, 0
	}
	ts := func(fields []string, line string) float64 {
		v, err := strconv.ParseFloat(strings.Split(line, "\t")[slices.Index(fields, "ts")], 64)
		if err != nil {
			tb.Fatal(err)
		}
		return v
	}
	with := func(fields []string, line string, set map[string]string) string {
		row := strings.Split(strings.TrimSpace(line), "\t")
		for k, v := range set {
			row[slices.Index(fields, k)] = v
		}
		return strings.Join(row, "\t") + "\n"
	}

	lines, fields, first := parse(ssl)
	at := first
	for ; sslMid < len(ssl)*35/100; at++ {
		sslMid += len(lines[at])
	}
	before := ts(fields, lines[at-1])
	lines = slices.Insert(lines, at,
		with(fields, lines[first], map[string]string{"uid": zeek.UnsetField}),
		with(fields, lines[first], map[string]string{"uid": "Cstraggler", "id.resp_h": "10.255.255.254"}))
	sslOut = []byte(strings.Join(lines, ""))

	lines, fields, first = parse(x509)
	lines = slices.Insert(lines, first, lines[first])
	later := 0
	for _, line := range lines[first:] {
		if ts(fields, line) > before {
			if later++; later == 2 {
				x509Cut += len(line) / 2
				break
			}
		}
		x509Cut += len(line)
	}
	for _, line := range lines[:first] {
		x509Cut += len(line)
	}
	return sslOut, []byte(strings.Join(lines, "")), sslMid, x509Cut
}

// restartStats is st without the fields a restart starts over by design:
// the process-lifetime counters, caches and clocks.
func restartStats(st ingest.Stats) ingest.Stats {
	st.Snapshots, st.SnapshotAge, st.Uptime = 0, 0, 0
	st.InternStrings, st.InternDNs = 0, 0
	st.ChainCache, st.ChainCacheHits, st.ChainCacheMisses = 0, 0, 0
	st.DecodeFallbacks = nil
	st.ReportBuilds, st.ReportShared = 0, 0
	return st
}

// TestIngestorSnapshotRestartEquivalence is the crash-resume guarantee:
// ingest a prefix (cut mid-line) in two polls, snapshot, restore into a
// fresh process image, append the rest, and the final report is
// byte-identical to a run that never stopped — across seeds and fold-worker
// widths. The prefix carries withAnomalies' rows, so the snapshot holds a
// duplicate certificate, a record error and a late connection, and the
// restored daemon's Stats equal the snapshotted one's on every field but the
// process-lifetime ones.
func TestIngestorSnapshotRestartEquivalence(t *testing.T) {
	seeds := []int64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			s := scenario(t, seed)
			ssl, x509 := replayBytes(t, s, false)
			ssl, x509, sslMid, x509Cut := withAnomalies(t, ssl, x509)
			window := analysis.WindowConfig{Interval: span(s)/10 + time.Nanosecond, Buckets: 6}

			for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
				t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
					window.Workers = workers

					// Oracle: the uninterrupted run over the same bytes.
					sslPath, x509Path := writeLogs(t, t.TempDir(), ssl, x509)
					oracle := ingest.New(newPipeline(s), ingest.Config{
						SSLPath: sslPath, X509Path: x509Path, Window: window,
					})
					defer oracle.Close()
					drain(t, oracle)
					wantText, wantJS := renderings(t, oracle.Report(0))

					// Interrupted run: prefixes cut mid-line at different
					// points per file, so the snapshot catches partial
					// trailing lines and a half-full join buffer. The first
					// poll folds the capture's early windows, so the
					// straggler the second poll reads is late.
					dir := t.TempDir()
					sslCut := len(ssl) * 55 / 100
					sslPath2, x509Path2 := writeLogs(t, dir, ssl[:sslMid], x509[:x509Cut])
					cfg := ingest.Config{
						SSLPath:      sslPath2,
						X509Path:     x509Path2,
						Window:       window,
						SnapshotPath: filepath.Join(dir, "ingest.snapshot"),
					}
					first := ingest.New(newPipeline(s), cfg)
					if err := first.PollOnce(); err != nil {
						t.Fatal(err)
					}
					appendFile(t, sslPath2, ssl[sslMid:sslCut])
					if err := first.PollOnce(); err != nil {
						t.Fatal(err)
					}
					if err := first.SnapshotToFile(); err != nil {
						t.Fatal(err)
					}
					firstStats := first.Stats()
					if firstStats.RecordErrs == 0 || firstStats.LateConns == 0 || firstStats.Joiner.DupCerts == 0 {
						t.Fatalf("the snapshot carries %d record errors, %d late connections, %d duplicate certificates; want each non-zero",
							firstStats.RecordErrs, firstStats.LateConns, firstStats.Joiner.DupCerts)
					}
					if firstStats.Snapshots != 1 || firstStats.SnapshotAge < 0 {
						t.Errorf("after one snapshot write: %d snapshots, age %v s", firstStats.Snapshots, firstStats.SnapshotAge)
					}
					if err := first.Close(); err != nil {
						t.Fatal(err)
					}

					// "Restart": restore from the snapshot file, append the
					// rest of both logs, drain.
					second, restored, err := ingest.RestoreOrNew(newPipeline(s), cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !restored {
						t.Fatal("RestoreOrNew ignored the snapshot file")
					}
					defer second.Close()
					st := second.Stats()
					if got, want := restartStats(st), restartStats(firstStats); !reflect.DeepEqual(got, want) {
						t.Fatalf("restored Stats differ from the snapshotted daemon's:\n got %+v\nwant %+v", got, want)
					}
					if st.Snapshots != 0 || st.SnapshotAge != -1 || st.Uptime > time.Hour.Seconds() {
						t.Errorf("a restart must start the process-lifetime fields over: %d snapshots, age %v s, uptime %v s",
							st.Snapshots, st.SnapshotAge, st.Uptime)
					}
					appendFile(t, sslPath2, ssl[sslCut:])
					appendFile(t, x509Path2, x509[x509Cut:])
					drain(t, second)

					gotText, gotJS := renderings(t, second.Report(0))
					if gotText != wantText {
						t.Errorf("restarted report diverges from uninterrupted run")
					}
					if !bytes.Equal(gotJS, wantJS) {
						t.Errorf("restarted JSON diverges from uninterrupted run")
					}
					if got, want := second.Stats().Observations, oracle.Stats().Observations; got != want {
						t.Errorf("restarted run folded %d observations, uninterrupted %d", got, want)
					}
				})
			}
		})
	}
}

// TestSnapshotBeforeReopenKeepsOffsets pins the restart-before-reopen
// hazard: a restored daemon whose logs cannot be opened yet (here ssl.log is
// renamed away) must still snapshot the tail offsets it restored, or its next
// restart re-reads the whole file and counts every record twice.
func TestSnapshotBeforeReopenKeepsOffsets(t *testing.T) {
	s := scenario(t, 1)
	ssl, x509 := replayBytes(t, s, false)
	window := analysis.WindowConfig{Interval: span(s)/10 + time.Nanosecond, Buckets: 6, Workers: 1}

	sslPath, x509Path := writeLogs(t, t.TempDir(), ssl, x509)
	oracle := ingest.New(newPipeline(s), ingest.Config{SSLPath: sslPath, X509Path: x509Path, Window: window})
	defer oracle.Close()
	drain(t, oracle)
	wantText, _ := renderings(t, oracle.Report(0))

	dir := t.TempDir()
	sslCut, x509Cut := len(ssl)*55/100, len(x509)*70/100
	sslPath, x509Path = writeLogs(t, dir, ssl[:sslCut], x509[:x509Cut])
	cfg := ingest.Config{SSLPath: sslPath, X509Path: x509Path, Window: window}
	first := ingest.New(newPipeline(s), cfg)
	if err := first.PollOnce(); err != nil {
		t.Fatal(err)
	}
	snap, err := first.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	first.Close()

	// Restart while ssl.log is away: the poll cannot reopen it, and the
	// snapshot taken then must equal the one restored from.
	away := filepath.Join(dir, "ssl.log.away")
	if err := os.Rename(sslPath, away); err != nil {
		t.Fatal(err)
	}
	second, err := ingest.Restore(newPipeline(s), cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := second.PollOnce(); err != nil {
		t.Fatal(err)
	}
	snap2, err := second.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	second.Close()
	if !bytes.Equal(maskSaved(snap2), maskSaved(snap)) {
		t.Error("snapshot of a restored daemon that could not reopen ssl.log differs from the one it restored")
	}

	// The next restart finds the log back, with the rest appended.
	if err := os.Rename(away, sslPath); err != nil {
		t.Fatal(err)
	}
	third, err := ingest.Restore(newPipeline(s), cfg, snap2)
	if err != nil {
		t.Fatal(err)
	}
	defer third.Close()
	appendFile(t, sslPath, ssl[sslCut:])
	appendFile(t, x509Path, x509[x509Cut:])
	drain(t, third)
	if got, want := third.Stats().Observations, oracle.Stats().Observations; got != want {
		t.Errorf("restarted run folded %d observations, uninterrupted %d", got, want)
	}
	if gotText, _ := renderings(t, third.Report(0)); gotText != wantText {
		t.Error("restarted report diverges from uninterrupted run")
	}
}

// TestRestoreRejectsForeignSnapshot pins the cross-version restore hazard:
// state files sealed under a different schema revision — or written before
// envelopes existed at all — must be refused with the typed schema error,
// never part-decoded into a fresh daemon.
func TestRestoreRejectsForeignSnapshot(t *testing.T) {
	s := scenario(t, 1)
	cases := []struct {
		name string
		data []byte
	}{
		{"legacy unversioned", []byte(`{"ssl_tail":{},"x509_tail":{}}`)},
	}
	sealed, err := certmodel.Seal(ingest.SnapshotSchema, ingest.SnapshotVersion+1, map[string]int{})
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, struct {
		name string
		data []byte
	}{"future version", sealed})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ingest.Restore(newPipeline(s), ingest.Config{}, tc.data)
			var se *certmodel.SchemaError
			if !errors.As(err, &se) {
				t.Fatalf("Restore err = %v, want *certmodel.SchemaError", err)
			}
			if se.WantSchema != ingest.SnapshotSchema || se.WantVersion != ingest.SnapshotVersion {
				t.Fatalf("SchemaError wants %q v%d", se.WantSchema, se.WantVersion)
			}
		})
	}
}

// TestHandlerEndpoints exercises the admin mux against a live (unfinished)
// ingestor, including the provisional-report path for still-open windows.
func TestHandlerEndpoints(t *testing.T) {
	s := scenario(t, 1)
	ssl, x509 := replayBytes(t, s, false)
	sslPath, x509Path := writeLogs(t, t.TempDir(), ssl, x509)
	ing := ingest.New(newPipeline(s), ingest.Config{
		SSLPath:  sslPath,
		X509Path: x509Path,
		Window:   analysis.WindowConfig{Interval: giantInterval, Buckets: 4, Workers: 2},
	})
	defer ing.Close()
	if err := ing.PollOnce(); err != nil {
		t.Fatal(err)
	}
	h := ing.Handler()

	get := func(path string) *httptest.ResponseRecorder {
		t.Helper()
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	if rec := get("/report"); rec.Code != http.StatusOK || rec.Body.Len() == 0 {
		t.Errorf("/report: code %d, %d bytes", rec.Code, rec.Body.Len())
	}
	if rec := get("/report?window=hour&format=json"); rec.Code != http.StatusOK || !json.Valid(rec.Body.Bytes()) {
		t.Errorf("/report json: code %d, valid=%v", rec.Code, json.Valid(rec.Body.Bytes()))
	}
	if rec := get("/report?window=36h"); rec.Code != http.StatusOK {
		t.Errorf("/report?window=36h: code %d", rec.Code)
	}
	for _, bad := range []string{"/report?window=bogus", "/report?window=-5m", "/report?format=xml"} {
		if rec := get(bad); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: code %d, want 400", bad, rec.Code)
		}
	}

	rec := get("/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("/healthz: code %d", rec.Code)
	}
	var health struct {
		Status string `json:"status"`
		Joiner struct {
			Joined int64 `json:"joined"`
		} `json:"joiner"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatalf("/healthz: %v", err)
	}
	if health.Status != "ok" || health.Joiner.Joined == 0 {
		t.Errorf("/healthz: status %q, joined %d", health.Status, health.Joiner.Joined)
	}

	rec = get("/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: code %d", rec.Code)
	}
	body := rec.Body.String()
	for _, series := range []string{
		"certchain_observations_total",
		"certchain_join_joined_total",
		`certchain_tail_lag_bytes{log="ssl"}`,
		`certchain_tail_parse_errors_total{log="x509"}`,
		// Nothing has folded yet (giant window, no Finish), so the category
		// series has its header but no samples.
		"# TYPE certchain_category_conns_total counter",
		"certchain_snapshot_age_seconds -1",
	} {
		if !bytes.Contains([]byte(body), []byte(series)) {
			t.Errorf("/metrics missing %s", series)
		}
	}

	if rec := get("/debug/pprof/cmdline"); rec.Code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline: code %d", rec.Code)
	}
}
