// Package stats provides the small statistical and rendering toolkit the
// report generators use: empirical CDFs (Figure 1), histograms (Figure 6),
// percentage tables, and fixed-width text tables mirroring the paper's
// layout.
package stats

import (
	"fmt"
	"sort"
	"strings"
)

// CDF is an empirical cumulative distribution over integer observations,
// weighted by counts.
type CDF struct {
	counts map[int]int64
	total  int64 // derived; UnmarshalJSON rebuilds it through Add
}

// NewCDF returns an empty distribution.
func NewCDF() *CDF {
	return &CDF{counts: make(map[int]int64)}
}

// Add records n occurrences of value v.
func (c *CDF) Add(v int, n int64) {
	if n <= 0 {
		return
	}
	c.counts[v] += n
	c.total += n
}

// Total returns the number of observations.
func (c *CDF) Total() int64 { return c.total }

// Merge folds another distribution into this one. Addition over per-value
// counts is commutative and associative, so sharded accumulation followed by
// any merge order equals a single sequential pass.
func (c *CDF) Merge(o *CDF) {
	if o == nil {
		return
	}
	for v, n := range o.counts {
		c.counts[v] += n
	}
	c.total += o.total
}

// At returns P(X <= v).
func (c *CDF) At(v int) float64 {
	if c.total == 0 {
		return 0
	}
	var cum int64
	for val, n := range c.counts {
		if val <= v {
			cum += n
		}
	}
	return float64(cum) / float64(c.total)
}

// Share returns P(X == v).
func (c *CDF) Share(v int) float64 {
	if c.total == 0 {
		return 0
	}
	return float64(c.counts[v]) / float64(c.total)
}

// Values returns the observed values in ascending order.
func (c *CDF) Values() []int {
	out := make([]int, 0, len(c.counts))
	for v := range c.counts {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// Quantile returns the smallest value v with P(X <= v) >= q.
func (c *CDF) Quantile(q float64) int {
	vals := c.Values()
	if len(vals) == 0 {
		return 0
	}
	var cum int64
	target := q * float64(c.total)
	for _, v := range vals {
		cum += c.counts[v]
		if float64(cum) >= target {
			return v
		}
	}
	return vals[len(vals)-1]
}

// Points returns (value, cumulative probability) pairs for plotting.
func (c *CDF) Points() []Point {
	vals := c.Values()
	out := make([]Point, 0, len(vals))
	var cum int64
	for _, v := range vals {
		cum += c.counts[v]
		out = append(out, Point{X: v, Y: float64(cum) / float64(c.total)})
	}
	return out
}

// Point is one CDF sample.
type Point struct {
	X int
	Y float64
}

// Histogram bins float64 observations into fixed-width buckets over [lo, hi].
type Histogram struct {
	Lo, Hi float64
	Bins   []int64
	total  int64
}

// NewHistogram creates a histogram with n bins spanning [lo, hi].
func NewHistogram(lo, hi float64, n int) *Histogram {
	return &Histogram{Lo: lo, Hi: hi, Bins: make([]int64, n)}
}

// Add records one observation; values outside [lo, hi] clamp to the edge
// bins.
func (h *Histogram) Add(v float64) {
	n := len(h.Bins)
	idx := int(float64(n) * (v - h.Lo) / (h.Hi - h.Lo))
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	h.Bins[idx]++
	h.total++
}

// Total returns the number of observations.
func (h *Histogram) Total() int64 { return h.total }

// Merge folds another histogram into this one. The two must share bounds and
// bin count; mismatched shapes indicate a programming error and panic.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil {
		return
	}
	if h.Lo != o.Lo || h.Hi != o.Hi || len(h.Bins) != len(o.Bins) {
		panic("stats: merging histograms with different shapes")
	}
	for i, n := range o.Bins {
		h.Bins[i] += n
	}
	h.total += o.total
}

// ShareAbove returns the fraction of observations with value >= threshold,
// computed from bin boundaries (threshold should align with a boundary).
func (h *Histogram) ShareAbove(threshold float64) float64 {
	if h.total == 0 {
		return 0
	}
	n := len(h.Bins)
	start := int(float64(n) * (threshold - h.Lo) / (h.Hi - h.Lo))
	if start < 0 {
		start = 0
	}
	var cum int64
	for i := start; i < n; i++ {
		cum += h.Bins[i]
	}
	return float64(cum) / float64(h.total)
}

// BinLabel renders the i-th bin's range.
func (h *Histogram) BinLabel(i int) string {
	w := (h.Hi - h.Lo) / float64(len(h.Bins))
	return fmt.Sprintf("[%.2f,%.2f)", h.Lo+float64(i)*w, h.Lo+float64(i+1)*w)
}

// Pct formats a ratio as a percentage with two decimals, like the paper's
// tables.
func Pct(x float64) string {
	return fmt.Sprintf("%.2f%%", 100*x)
}

// Ratio guards division by zero.
func Ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Table renders fixed-width text tables.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends one row; cells are rendered verbatim.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table with padded columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) && len(c) < widths[i] {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// FormatCount renders large counts with thousands separators, matching the
// paper's "259.30 M"-style readability for totals.
func FormatCount(n int64) string {
	s := fmt.Sprintf("%d", n)
	if len(s) <= 3 {
		return s
	}
	var b strings.Builder
	lead := len(s) % 3
	if lead > 0 {
		b.WriteString(s[:lead])
		if len(s) > lead {
			b.WriteByte(',')
		}
	}
	for i := lead; i < len(s); i += 3 {
		b.WriteString(s[i : i+3])
		if i+3 < len(s) {
			b.WriteByte(',')
		}
	}
	return b.String()
}
