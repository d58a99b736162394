package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// metricDef names a metric and its unit. BENCHMARK.json carries the same
// names and units plus direction and bound; bench_test.go pins the two lists
// against each other.
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics every workload reports with -trace 0. Each is
// defined on all three paths (README.md, "End-to-end metrics"), because the
// driver expects every workload to report every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rows_per_s", "rows/s"},
	{"allocs_per_row", "allocs/row"},
	{"alloc_bytes_per_row", "B/row"},
	{"report_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics, in README.md's table order. The
// prefix is the module measured; harness.* say how far to trust the rest.
var perLayer = []metricDef{
	{"zeek.fastjoin_ns_per_row", "ns/row"},
	{"zeek.fastjoin_mb_per_s", "MB/s"},
	{"zeek.fastjoin_allocs_per_row", "allocs/row"},
	{"zeek.fastjoin_bytes_per_row", "B/row"},
	{"zeek.fastjoin_join_errors", "count"},
	{"zeek.fastjoin_pass_share_pct", "%"},
	{"harness.linescan_ns_per_row", "ns/row"},
	{"analysis.load_ns_per_row", "ns/row"},
	{"analysis.load_allocs_per_row", "allocs/row"},
	{"analysis.aggregate_self_ns_per_row", "ns/row"},
	{"analysis.observe_ns_per_obs", "ns/obs"},
	{"analysis.observe_allocs_per_obs", "allocs/obs"},
	{"analysis.observe_pass_share_pct", "%"},
	{"analysis.accumulate_w2_speedup", "x"},
	{"chain.analyze_ns_per_chain", "ns/chain"},
	{"chain.analyze_keyed_hit_ns", "ns"},
	{"lint.chain_ns_per_chain", "ns/chain"},
	{"analysis.merge_ms", "ms"},
	{"analysis.merge_allocs", "count"},
	{"analysis.finalize_ms", "ms"},
	{"analysis.finalize_allocs", "count"},
	{"analysis.render_ms", "ms"},
	{"analysis.export_json_ms", "ms"},
	{"analysis.state_encode_ms", "ms"},
	{"analysis.state_decode_ms", "ms"},
	{"analysis.state_bytes_per_obs", "B/obs"},
	{"zeek.tail_ns_per_row", "ns/row"},
	{"zeek.tail_allocs_per_row", "allocs/row"},
	{"zeek.tail_parse_errors", "count"},
	{"zeek.incjoin_ns_per_row", "ns/row"},
	{"zeek.incjoin_allocs_per_row", "allocs/row"},
	{"zeek.incjoin_pending_max", "count"},
	{"zeek.incjoin_orphans", "count"},
	{"zeek.incjoin_forced", "count"},
	{"ingest.poll_ns_per_row", "ns/row"},
	{"ingest.poll_p99_ms", "ms"},
	{"ingest.finish_ms", "ms"},
	{"ingest.stream_to_batch_time_ratio", "x"},
	{"ingest.stream_to_batch_allocs_ratio", "x"},
	{"analysis.ring_fold_ns_per_obs", "ns/obs"},
	{"analysis.ring_live_buckets", "count"},
	{"analysis.ring_report_all_ms", "ms"},
	{"analysis.ring_report_window_ms", "ms"},
	{"ingest.snapshot_ms", "ms"},
	{"ingest.snapshot_mb", "MB"},
	{"ingest.restore_ms", "ms"},
	{"ingest.http_text_p50_ms", "ms"},
	{"ingest.http_json_p50_ms", "ms"},
	{"ingest.http_window_p50_ms", "ms"},
	{"ingest.http_p99_ms", "ms"},
	{"ingest.http_rps", "1/s"},
	{"ingest.resp_bytes_p50", "B"},
	{"ingest.lag_p50_ms", "ms"},
	{"ingest.lag_p90_ms", "ms"},
	{"ingest.poll_under_read_p50_ms", "ms"},
	{"ingest.poll_quiet_p50_ms", "ms"},
	{"harness.trace_overhead_pct", "%"},
	{"harness.trace_uncovered_pct", "%"},
	{"harness.feeder_late_p99_ms", "ms"},
	{"harness.append_s", "s"},
}

// stat summarises the samples behind one metric.
type stat struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	// Values are the samples in the order measured (at most maxValues).
	Values []float64 `json:"values,omitempty"`
}

// maxValues caps the raw samples a stat carries into the -out file.
const maxValues = 64

// quantile is the exact order statistic with linear interpolation between
// neighbours; xs must be sorted and non-empty.
func quantile(xs []float64, q float64) float64 {
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile returns quantile q of xs, or NaN for no samples — which the
// result gate then reports as a missing metric.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return quantile(sorted(xs), q)
}

func summarise(unit string, xs []float64) stat {
	if len(xs) == 0 {
		return stat{Unit: unit, Median: math.NaN(), Q1: math.NaN(), Q3: math.NaN()}
	}
	s := sorted(xs)
	return stat{Unit: unit, Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s),
		Values: xs[:min(len(xs), maxValues)]}
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// tally counts operations attempted and failed, with the first reasons.
type tally struct {
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
}

// maxFailures caps the reasons a tally keeps.
const maxFailures = 20

// fail books n failed operations under one reason.
func (t *tally) fail(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	t.Failed += n
	if len(t.Failures) < maxFailures {
		t.Failures = append(t.Failures, fmt.Sprintf(format, args...))
	}
}

// book adds another tally's operations, failures and reasons.
func (t *tally) book(o tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	t.Failures = append(t.Failures, o.Failures...)
}

// workloadResult is one workload's outcome.
type workloadResult struct {
	Name    string `json:"name"`
	Correct bool   `json:"correct"`
	tally
	EndToEnd map[string]stat `json:"end_to_end,omitempty"`
	PerLayer map[string]stat `json:"per_layer,omitempty"`
}

// resultSet is the -out file: one run of the selected workloads.
type resultSet struct {
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Workloads []*workloadResult `json:"workloads"`
}

// seal checks that every metric of defs is present and finite — a metric
// that could not be measured is a failure, not a silent zero — and settles
// Correct.
func (r *workloadResult) seal(defs []metricDef, got map[string]stat) {
	for _, d := range defs {
		s, ok := got[d.Name]
		if !ok || math.IsNaN(s.Median) || math.IsInf(s.Median, 0) {
			r.fail(1, "metric %s was not measured", d.Name)
		}
	}
	if r.Attempted < 1 {
		r.Attempted = 1
	}
	r.Correct = r.Failed == 0
}

func (r *workloadResult) print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %d operations attempted, %d failed\n", r.Name, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tunit\tmedian\tq1\tq3\tn")
	for _, group := range []struct {
		defs []metricDef
		got  map[string]stat
	}{{endToEnd, r.EndToEnd}, {perLayer, r.PerLayer}} {
		for _, d := range group.defs {
			if s, ok := group.got[d.Name]; ok {
				fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%d\n", d.Name, s.Unit, s.Median, s.Q1, s.Q3, s.N)
			}
		}
	}
	tw.Flush()
}

// driverLine is the object the driver reads from the last line of standard
// output: with tracing off every end-to-end metric, with tracing on every
// per-layer metric.
func (r *workloadResult) driverLine(traced bool) map[string]any {
	defs, got := endToEnd, r.EndToEnd
	if traced {
		defs, got = perLayer, r.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		if s, ok := got[d.Name]; ok && !math.IsNaN(s.Median) && !math.IsInf(s.Median, 0) {
			metrics[d.Name] = value{Value: s.Median, Unit: d.Unit}
		}
	}
	return map[string]any{
		"correct":   r.Correct,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   metrics,
	}
}

// benchmarkFile is the part of BENCHMARK.json -compare and the tests read.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []benchmarkMetric       `json:"end_to_end"`
	PerLayer  []benchmarkMetric       `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the relative change from A to B, the bound and a verdict, and returns 1
// if any metric regressed. A metric whose own spread in either file exceeds
// its bound is unresolved: the files cannot tell a change of that size from
// noise.
func compareFiles(benchPath, aPath, bPath string) int {
	var bench benchmarkFile
	var a, b resultSet
	for path, v := range map[string]any{benchPath: &bench, aPath: &a, bPath: &b} {
		if err := readJSON(path, v); err != nil {
			fmt.Fprintln(os.Stderr, "certchain-bench:", err)
			return 2
		}
	}
	byName := make(map[string]*workloadResult)
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	regressed := false
	tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tchange\tbound\tverdict")
	for _, wa := range a.Workloads {
		wb := byName[wa.Name]
		if wb == nil {
			continue
		}
		for _, m := range bench.EndToEnd {
			sa, okA := wa.EndToEnd[m.Name]
			sb, okB := wb.EndToEnd[m.Name]
			if !okA || !okB || sa.Median == 0 {
				continue
			}
			change := (sb.Median - sa.Median) / sa.Median
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "regressed"
				regressed = true
			case spread(sa) > m.Bound || spread(sb) > m.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.0f%%\t%s\n",
				wa.Name, m.Name, sa.Median, sb.Median, 100*change, 100*m.Bound, verdict)
		}
	}
	tw.Flush()
	if regressed {
		return 1
	}
	return 0
}

// spread is the interquartile distance as a share of the median.
func spread(s stat) float64 {
	if s.N < 4 || s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}
