package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// runner re-executes os.Executable() with -child, and under `go test` that
// is this binary.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == "-child" {
		os.Exit(childMain(os.Args[2]))
	}
	os.Exit(m.Run())
}

// tiny shrinks a workload to smoke-test size; the paths taken are the same.
func tiny(w workload) workload {
	w.Scale = 0.0004
	w.Cap = min(w.Cap, 8)
	return w
}

func smokeOptions(t *testing.T, traced bool) runOptions {
	return runOptions{Seed: 1, Seconds: 0.5, ProbeSeconds: 0.3, EndToEnd: !traced, Traced: traced, TmpDir: t.TempDir()}
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	var b benchmarkFile
	if err := readJSON(filepath.Join("..", "..", "BENCHMARK.json"), &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkFileMatchesCode pins BENCHMARK.json's workloads and metrics
// (names and units) to the tables the code reports from.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, b.Workloads[i].Name, w.Name)
		}
	}
	for _, group := range []struct {
		kind string
		file []benchmarkMetric
		code []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(group.file) != len(group.code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, code has %d", group.kind, len(group.file), len(group.code))
			continue
		}
		for i, d := range group.code {
			if m := group.file[i]; m.Name != d.Name || m.Unit != d.Unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s [%s], code %s [%s]", group.kind, i, m.Name, m.Unit, d.Name, d.Unit)
			}
		}
	}
}

// TestSmokeAllWorkloads runs every workload through the child protocol,
// untraced and traced, and requires every metric BENCHMARK.json names.
func TestSmokeAllWorkloads(t *testing.T) {
	b := readBenchmarkFile(t)
	for _, w := range workloads {
		w := tiny(w)
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			for _, traced := range []bool{false, true} {
				res, err := runWorkload(ctx, w, smokeOptions(t, traced))
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("traced=%v: correct=%v attempted=%d failed=%d: %v", traced, res.Correct, res.Attempted, res.Failed, res.Failures)
				}
				want, got := b.EndToEnd, res.EndToEnd
				if traced {
					want, got = b.PerLayer, res.PerLayer
				}
				for _, m := range want {
					s, ok := got[m.Name]
					switch {
					case !ok:
						t.Errorf("traced=%v: metric %s missing", traced, m.Name)
					case math.IsNaN(s.Median) || math.IsInf(s.Median, 0):
						t.Errorf("traced=%v: metric %s = %v", traced, m.Name, s.Median)
					case s.Unit != m.Unit || s.N < 1:
						t.Errorf("traced=%v: metric %s has unit %q (want %q) and %d samples", traced, m.Name, s.Unit, m.Unit, s.N)
					}
				}
				line, err := json.Marshal(res.driverLine(traced))
				if err != nil {
					t.Fatal(err)
				}
				var parsed struct {
					Metrics map[string]struct {
						Value *float64
						Unit  string
					}
				}
				if err := json.Unmarshal(line, &parsed); err != nil || len(parsed.Metrics) != len(want) {
					t.Errorf("traced=%v: driver line carries %d metrics, want %d (%v)", traced, len(parsed.Metrics), len(want), err)
				}
			}
		})
	}
}

// corruptRow garbles the timestamp of one ssl.log data row in place, so the
// cut offsets stay valid and exactly one row can no longer be decoded.
func corruptRow(in *inputs) error {
	data, err := os.ReadFile(in.SSL)
	if err != nil {
		return err
	}
	at := len(data) / 2
	at += bytes.IndexByte(data[at:], '\n') + 1
	data[at] = 'x'
	return os.WriteFile(in.SSL, data, 0o644)
}

// TestCorruptedRowIsAFailedOperation damages one log line and requires the
// run to count it, on the batch path and on the streaming path.
func TestCorruptedRowIsAFailedOperation(t *testing.T) {
	for _, name := range []string{"batch-tsv-conns", "stream-tsv-drain"} {
		w, _ := workloadByName(name)
		w = tiny(w)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			opts := smokeOptions(t, false)
			opts.Corrupt = corruptRow
			res, err := runWorkload(ctx, w, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed < 1 {
				t.Errorf("corrupted row went unnoticed: correct=%v failed=%d", res.Correct, res.Failed)
			}
		})
	}
}

// TestSetupGuards covers the generator guard: more rows per observation
// than the replay writer can time-stamp, and a log out of time order.
func TestSetupGuards(t *testing.T) {
	w := tiny(workloads[0])
	w.Cap = maxRowsPerObservation + 1
	if _, _, err := setup(w, 1, t.TempDir()); err == nil {
		t.Errorf("setup accepted %d rows per observation", w.Cap)
	}
	path := filepath.Join(t.TempDir(), "ssl.log")
	rows := "#fields\tts\tuid\n1600000000.5\tC1\n1600000000.25\tC2\n"
	if err := os.WriteFile(path, []byte(rows), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := scanLog(path); err == nil || !strings.Contains(err.Error(), "time order") {
		t.Errorf("scanLog on a log out of time order: %v", err)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer(0)
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	// root 0..100; a 10..60 with child b 20..50; c 40..90 overlaps a.
	tr.spans = []span{
		{name: "root", parent: noParent, start: at(0), end: at(100)},
		{name: "a", parent: 0, start: at(10), end: at(60)},
		{name: "b", parent: 1, start: at(20), end: at(50)},
		{name: "c", parent: 0, start: at(40), end: at(90)},
	}
	self, wall, uncovered := tr.selfTimes(0)
	ms := func(d time.Duration) int { return int(d / time.Millisecond) }
	if ms(wall) != 100 || ms(uncovered) != 20 || ms(self["a"]) != 20 || ms(self["b"]) != 30 || ms(self["c"]) != 50 {
		t.Errorf("wall %v uncovered %v self %v", wall, uncovered, self)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bench := write("BENCHMARK.json", map[string]any{"end_to_end": []benchmarkMetric{
		{Name: "rows_per_s", Unit: "rows/s", Better: "higher", Bound: 0.1},
		{Name: "report_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1},
	}})
	set := func(rows, ms float64) resultSet {
		return resultSet{Workloads: []*workloadResult{{Name: "w", EndToEnd: map[string]stat{
			"rows_per_s":    {Median: rows, Q1: rows, Q3: rows, N: 5},
			"report_p50_ms": {Median: ms, Q1: ms, Q3: ms, N: 5},
		}}}}
	}
	base := write("a.json", set(1000, 10))
	if code := compareFiles(bench, base, write("same.json", set(950, 10.5))); code != 0 {
		t.Errorf("a change inside the bounds exits %d", code)
	}
	if code := compareFiles(bench, base, write("slow.json", set(850, 10))); code != 1 {
		t.Errorf("15%% fewer rows per second exits %d, want 1", code)
	}
	if code := compareFiles(bench, base, write("late.json", set(1000, 12))); code != 1 {
		t.Errorf("20%% more latency exits %d, want 1", code)
	}
}
