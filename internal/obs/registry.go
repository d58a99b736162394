// Package obs is the repository's unified observability layer: a stdlib-only
// metrics registry (counters, gauges, histograms with labels, commutative
// Merge riding the shard contract), stage spans with an injectable clock and
// Chrome trace-event export, run provenance manifests with a deterministic
// subset, structured slog helpers, and build info — shared by the batch
// pipeline, the streaming ingest daemon, and every serving CLI.
//
// Determinism rules (see DESIGN.md §11): metric *values* may carry wall-time
// quantities (uptime, durations), but everything obs renders is emitted in a
// fixed order, so equal states produce byte-identical text. The only
// wall-clock read in the package lives in clock.go; all other timing is
// injected.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Kind is a metric family's type.
type Kind int

const (
	// KindCounter is a monotonically accumulated total.
	KindCounter Kind = iota
	// KindGauge is a point-in-time value.
	KindGauge
	// KindHistogram is a bucketed distribution.
	KindHistogram
)

// String returns the Prometheus TYPE keyword.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Registry holds metric families. All methods are safe for concurrent use.
// The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*Family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*Family)}
}

// Family is one named metric with a fixed label schema. Series materialize
// lazily per label-value combination.
type Family struct {
	reg     *Registry
	name    string
	help    string
	kind    Kind
	labels  []string  // label names, in declaration order
	buckets []float64 // histogram upper bounds, ascending (+Inf implied)
	series  map[string]*Series
}

// Series is one (family, label values) time series.
type Series struct {
	fam    *Family
	values []string
	// counter/gauge value
	val float64
	// histogram state: per-bucket counts aligned with fam.buckets, plus the
	// implicit +Inf bucket at the end.
	bucketCounts []uint64
	sum          float64
	count        uint64
}

func (r *Registry) family(name, help string, kind Kind, buckets []float64, labels []string) *Family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %v (was %v)", name, kind, f.kind))
		}
		if len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered with %d labels (was %d)", name, len(labels), len(f.labels)))
		}
		return f
	}
	f := &Family{
		reg:     r,
		name:    name,
		help:    help,
		kind:    kind,
		labels:  append([]string(nil), labels...),
		buckets: append([]float64(nil), buckets...),
		series:  make(map[string]*Series),
	}
	r.families[name] = f
	return f
}

// Counter registers (or returns) a counter family with the given label
// names.
func (r *Registry) Counter(name, help string, labels ...string) *Family {
	return r.family(name, help, KindCounter, nil, labels)
}

// Gauge registers (or returns) a gauge family with the given label names.
func (r *Registry) Gauge(name, help string, labels ...string) *Family {
	return r.family(name, help, KindGauge, nil, labels)
}

// Histogram registers (or returns) a histogram family. buckets are ascending
// upper bounds; the +Inf bucket is implicit.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Family {
	if len(buckets) == 0 {
		buckets = DefaultDurationBuckets
	}
	return r.family(name, help, KindHistogram, buckets, labels)
}

// DefaultDurationBuckets spans microseconds to minutes in seconds, the
// range of one pipeline stage.
var DefaultDurationBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1, 5, 30, 60, 300,
}

// seriesKey encodes label values unambiguously (values may contain any
// byte; a length prefix keeps concatenations distinct).
func seriesKey(values []string) string {
	var b strings.Builder
	for _, v := range values {
		fmt.Fprintf(&b, "%d:%s;", len(v), v)
	}
	return b.String()
}

// With returns the series for the given label values (count must match the
// family's label names), creating it at zero.
func (f *Family) With(values ...string) *Series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := seriesKey(values)
	f.reg.mu.Lock()
	defer f.reg.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = &Series{fam: f, values: append([]string(nil), values...)}
		if f.kind == KindHistogram {
			s.bucketCounts = make([]uint64, len(f.buckets)+1)
		}
		f.series[key] = s
	}
	return s
}

// Inc adds one to a counter or gauge.
func (s *Series) Inc() { s.Add(1) }

// Add accumulates into a counter or gauge.
func (s *Series) Add(delta float64) {
	s.fam.reg.mu.Lock()
	defer s.fam.reg.mu.Unlock()
	s.val += delta
}

// Set replaces a gauge's (or scrape-refreshed counter's) value. Counters
// exported from a consistent snapshot (the ingest daemon's Stats) refresh
// via Set rather than tracking deltas; Merge still sums.
func (s *Series) Set(v float64) {
	s.fam.reg.mu.Lock()
	defer s.fam.reg.mu.Unlock()
	s.val = v
}

// Observe folds one measurement into a histogram.
func (s *Series) Observe(v float64) {
	s.fam.reg.mu.Lock()
	defer s.fam.reg.mu.Unlock()
	idx := sort.SearchFloat64s(s.fam.buckets, v)
	// SearchFloat64s returns the first bucket whose bound is >= v, which is
	// exactly the cumulative-le bucket; values above every bound land in
	// +Inf.
	s.bucketCounts[idx]++
	s.sum += v
	s.count++
}

// Value returns a counter/gauge value, or a histogram's observation count.
func (s *Series) Value() float64 {
	s.fam.reg.mu.Lock()
	defer s.fam.reg.mu.Unlock()
	if s.fam.kind == KindHistogram {
		return float64(s.count)
	}
	return s.val
}

// Value looks up a series value by family name and label values; ok is
// false when either is unknown.
func (r *Registry) Value(name string, labelValues ...string) (v float64, ok bool) {
	r.mu.Lock()
	f, okF := r.families[name]
	if !okF {
		r.mu.Unlock()
		return 0, false
	}
	s, okS := f.series[seriesKey(labelValues)]
	r.mu.Unlock()
	if !okS {
		return 0, false
	}
	return s.Value(), true
}

// InfoLabels returns the label name→value map of the family's single series
// — the idiom for *_info metrics (build info). It returns nil when the
// family is absent or has zero or multiple series.
func (r *Registry) InfoLabels(name string) map[string]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok || len(f.series) != 1 {
		return nil
	}
	for _, s := range f.series {
		out := make(map[string]string, len(f.labels))
		for i, n := range f.labels {
			out[n] = s.values[i]
		}
		return out
	}
	return nil
}

// Merge folds other into r: counters, gauges, and histograms all sum, so
// Merge is commutative and associative — the same contract the analysis
// shard merge rides. Families present only in other are adopted. Merging
// families that disagree on kind, label schema, or buckets returns an
// error.
func (r *Registry) Merge(other *Registry) error {
	if other == nil || other == r {
		return nil
	}
	// Lock ordering: registries are merged under both locks; callers never
	// merge in both directions concurrently (shard merges are fan-in).
	r.mu.Lock()
	defer r.mu.Unlock()
	other.mu.Lock()
	defer other.mu.Unlock()

	names := make([]string, 0, len(other.families))
	for name := range other.families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		of := other.families[name]
		f, ok := r.families[name]
		if !ok {
			f = &Family{
				reg:     r,
				name:    of.name,
				help:    of.help,
				kind:    of.kind,
				labels:  append([]string(nil), of.labels...),
				buckets: append([]float64(nil), of.buckets...),
				series:  make(map[string]*Series),
			}
			r.families[name] = f
		} else {
			if f.kind != of.kind {
				return fmt.Errorf("obs: merge %q: kind %v vs %v", name, f.kind, of.kind)
			}
			if strings.Join(f.labels, ",") != strings.Join(of.labels, ",") {
				return fmt.Errorf("obs: merge %q: label schema mismatch", name)
			}
			if len(f.buckets) != len(of.buckets) {
				return fmt.Errorf("obs: merge %q: bucket count mismatch", name)
			}
			for i := range f.buckets {
				if f.buckets[i] != of.buckets[i] {
					return fmt.Errorf("obs: merge %q: bucket bounds mismatch", name)
				}
			}
		}
		for key, os := range of.series {
			s, ok := f.series[key]
			if !ok {
				s = &Series{fam: f, values: append([]string(nil), os.values...)}
				if f.kind == KindHistogram {
					s.bucketCounts = make([]uint64, len(f.buckets)+1)
				}
				f.series[key] = s
			}
			s.val += os.val
			s.sum += os.sum
			s.count += os.count
			for i := range os.bucketCounts {
				s.bucketCounts[i] += os.bucketCounts[i]
			}
		}
	}
	return nil
}

// escapeHelp escapes a HELP line per the Prometheus exposition format:
// backslash and newline.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return s
}

// escapeLabelValue escapes a label value per the Prometheus exposition
// format: backslash, double-quote, and newline.
func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return s
}

// formatValue renders a sample value: integers without exponent, specials
// as +Inf/-Inf/NaN.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelBlock renders {a="x",b="y"} from parallel name/value slices plus
// optional extra pairs (the histogram `le`); empty input renders nothing.
func labelBlock(names, values []string, extra ...string) string {
	if len(names) == 0 && len(extra) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	first := true
	emit := func(n, v string) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(v))
		b.WriteByte('"')
	}
	for i, n := range names {
		emit(n, values[i])
	}
	for i := 0; i+1 < len(extra); i += 2 {
		emit(extra[i], extra[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// WriteText renders the registry in Prometheus text exposition format
// (version 0.0.4): families sorted by name, series sorted by label values,
// HELP and label values escaped. Equal registry states produce identical
// bytes.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := r.families[name]
		// A registered family renders its header even before any series
		// exists: dashboards see the metric's type immediately, and a scrape
		// taken before the first sample still documents the full surface.
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, escapeHelp(f.help), f.name, f.kind); err != nil {
			return err
		}
		keys := make([]string, 0, len(f.series))
		for key := range f.series {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		for _, key := range keys {
			s := f.series[key]
			if f.kind != KindHistogram {
				if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, labelBlock(f.labels, s.values), formatValue(s.val)); err != nil {
					return err
				}
				continue
			}
			cum := uint64(0)
			for i, bound := range f.buckets {
				cum += s.bucketCounts[i]
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
					labelBlock(f.labels, s.values, "le", formatValue(bound)), cum); err != nil {
					return err
				}
			}
			cum += s.bucketCounts[len(f.buckets)]
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
				labelBlock(f.labels, s.values, "le", "+Inf"), cum); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelBlock(f.labels, s.values), formatValue(s.sum)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelBlock(f.labels, s.values), s.count); err != nil {
				return err
			}
		}
	}
	return nil
}

// Text renders WriteText to a string.
func (r *Registry) Text() string {
	var b strings.Builder
	// strings.Builder never errors.
	_ = r.WriteText(&b)
	return b.String()
}
