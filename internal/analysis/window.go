package analysis

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"certchains/internal/campus"
	"certchains/internal/certmodel"
	"certchains/internal/chain"
)

// WindowRing folds observations incrementally into a ring of per-interval
// accumulators, giving the ingest daemon on-demand reports over trailing
// windows ("last hour", "last day") as well as all time, without re-running
// analysis over history.
//
// Buckets are keyed by simulated time — the observation's own timestamp,
// never the wall clock — so the report for any window is a pure function of
// the observations ingested, independent of when the daemon processed them.
// Each live bucket holds one accumulator shard per worker; a window report
// merges the relevant shards into a throwaway accumulator and finalizes it.
// Because partialReport.merge is commutative and reads its source without
// mutation, reporting never perturbs live state, and any partition of
// observations across buckets, shards, and daemon restarts finalizes
// byte-identically to one sequential pass (the equivalence suite enforces
// this).
//
// When the ring exceeds its configured depth, the oldest bucket is folded
// into the spill accumulator: all-time reports stay exact while live memory
// is bounded by Buckets x Workers accumulators.
//
// Concurrency: Report, ReportWith, Snapshot, Seq, CategoryTotals and
// ConnTotals only read the ring. Any number of them may run at once, but none
// may run beside ObserveBatch, the one method that changes it; the caller
// provides that exclusion (the ingest daemon holds a read lock for readers
// and the write lock for a fold).
type WindowRing struct {
	p   *Pipeline
	cfg WindowConfig

	buckets map[int64]windowBucket
	order   []int64 // live bucket indexes, ascending
	spill   *partialReport

	seq   int
	wm    time.Time
	wmSet bool
}

// WindowConfig sizes a WindowRing.
type WindowConfig struct {
	// Interval is the bucket width in simulated time; 0 selects
	// DefaultWindowInterval.
	Interval time.Duration
	// Buckets is the maximum number of live buckets before the oldest spills;
	// 0 selects DefaultWindowBuckets.
	Buckets int
	// Workers is the fold parallelism per ObserveBatch; 0 selects
	// runtime.GOMAXPROCS(0).
	Workers int
}

// DefaultWindowInterval is one paper-style reporting hour.
const DefaultWindowInterval = time.Hour

// DefaultWindowBuckets keeps two days of hourly buckets live.
const DefaultWindowBuckets = 48

// windowBucket holds one interval's per-worker accumulators, created
// lazily. A restored bucket's history, collapsed into one decoded partial,
// is shard 0.
type windowBucket []*partialReport

// NewWindowRing creates an empty ring over the pipeline's components.
func NewWindowRing(p *Pipeline, cfg WindowConfig) *WindowRing {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultWindowInterval
	}
	if cfg.Buckets <= 0 {
		cfg.Buckets = DefaultWindowBuckets
	}
	cfg.Workers = normalizeWorkers(cfg.Workers)
	return &WindowRing{
		p:       p,
		cfg:     cfg,
		buckets: make(map[int64]windowBucket),
		spill:   p.newPartial(),
	}
}

// Config returns the normalized configuration.
func (w *WindowRing) Config() WindowConfig { return w.cfg }

func (w *WindowRing) bucketIdx(t time.Time) int64 {
	return WindowIndex(t, w.cfg.Interval)
}

// WindowIndex is the index of the interval-wide window holding t: window i
// spans [i*interval, (i+1)*interval) nanoseconds since the Unix epoch, so
// times before the epoch floor to negative indexes. interval must be
// positive. The ring's buckets and the ingest daemon's aggregation windows
// both use it, so an aggregate closes on a bucket boundary.
func WindowIndex(t time.Time, interval time.Duration) int64 {
	ns, iv := t.UnixNano(), int64(interval)
	q := ns / iv
	if ns%iv < 0 {
		q--
	}
	return q
}

// bucket returns the live bucket for idx, creating it in order.
func (w *WindowRing) bucket(idx int64) windowBucket {
	if b, ok := w.buckets[idx]; ok {
		return b
	}
	b := make(windowBucket, w.cfg.Workers)
	w.buckets[idx] = b
	pos := sort.Search(len(w.order), func(i int) bool { return w.order[i] >= idx })
	w.order = append(w.order, 0)
	copy(w.order[pos+1:], w.order[pos:])
	w.order[pos] = idx
	return b
}

// ObserveBatch folds a batch of observations into their buckets, sharded
// across the configured workers. Observations are bucketed by their Last
// timestamp (the daemon's aggregator emits one observation per window, so
// First and Last fall in the same bucket). It is the ring's only writer: it
// must not run beside another ObserveBatch or any of the reading methods.
func (w *WindowRing) ObserveBatch(obs []*campus.Observation) {
	if len(obs) == 0 {
		return
	}
	sp := w.p.Tracer.Start("window-fold", "window/fold").SetRecords(int64(len(obs)))
	defer sp.End()
	type item struct {
		seq int
		o   *campus.Observation
		b   windowBucket
	}
	items := make([]item, 0, len(obs))
	for _, o := range obs {
		b := w.bucket(w.bucketIdx(o.Last))
		items = append(items, item{seq: w.seq, o: o, b: b})
		w.seq++
		if !w.wmSet || o.Last.After(w.wm) {
			w.wm, w.wmSet = o.Last, true
		}
	}
	workers := w.cfg.Workers
	if workers > len(items) {
		workers = len(items)
	}
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for i := wk; i < len(items); i += workers {
				it := items[i]
				pr := it.b[wk]
				if pr == nil {
					pr = w.p.newPartial()
					it.b[wk] = pr
				}
				pr.observe(it.seq, it.o)
			}
		}(wk)
	}
	wg.Wait()
	w.evict()
}

// evict folds the oldest buckets into the spill accumulator until the ring
// is back within its configured depth.
func (w *WindowRing) evict() {
	for len(w.order) > w.cfg.Buckets {
		idx := w.order[0]
		w.order = w.order[1:]
		b := w.buckets[idx]
		delete(w.buckets, idx)
		b.each(w.spill.merge)
	}
}

// each calls fn on every accumulator holding folded state: the spill, then
// each live bucket's shards, in bucket order.
func (w *WindowRing) each(fn func(*partialReport)) {
	fn(w.spill)
	for _, idx := range w.order {
		w.buckets[idx].each(fn)
	}
}

// each calls fn on the bucket's shards.
func (b windowBucket) each(fn func(*partialReport)) {
	for _, pr := range b {
		if pr != nil {
			fn(pr)
		}
	}
}

// Report finalizes a report over the trailing window ending at the
// watermark (the latest observation timestamp). window <= 0 means all time,
// including spilled history. A window wider than the live ring silently
// reports over what is still live; use all time for exact totals.
func (w *WindowRing) Report(window time.Duration) *Report {
	return w.ReportWith(nil, window)
}

// Span is the number of trailing intervals a window covers,
// ceil(window/Interval), and 0 for all time (window <= 0). It is all
// ReportWith reads of its window, so two windows with the same span report
// the same bytes.
func (w *WindowRing) Span(window time.Duration) int64 {
	if window <= 0 {
		return 0
	}
	return int64((window + w.cfg.Interval - 1) / w.cfg.Interval)
}

// ReportWith is Report extended with provisional observations that have not
// been folded into the ring — the ingest daemon's still-open per-window
// aggregates — so a live report includes the current, partially observed
// interval. The extras are observed into the throwaway accumulator with
// sequence numbers continuing after the ring's, and live state is never
// touched: concurrent ReportWith calls are safe (see WindowRing).
func (w *WindowRing) ReportWith(extra []*campus.Observation, window time.Duration) *Report {
	sp := w.p.Tracer.Start("window-report", "window/report").
		Arg("live_buckets", int64(len(w.order)))
	defer sp.End()
	out := w.p.newPartial()
	n := w.Span(window)
	all := n == 0
	if all {
		out.merge(w.spill)
	}
	wm, wmSet := w.wm, w.wmSet
	for _, o := range extra {
		if !wmSet || o.Last.After(wm) {
			wm, wmSet = o.Last, true
		}
	}
	if !all && !wmSet {
		return out.finalize()
	}
	minIdx := int64(0)
	if !all {
		minIdx = WindowIndex(wm, w.cfg.Interval) - n + 1
	}
	for _, idx := range w.order {
		if !all && idx < minIdx {
			continue
		}
		w.buckets[idx].each(out.merge)
	}
	seq := w.seq
	for _, o := range extra {
		if all || w.bucketIdx(o.Last) >= minIdx {
			out.observe(seq, o)
		}
		seq++
	}
	return out.finalize()
}

// Seq is the number of observations folded so far (and the next sequence
// number).
func (w *WindowRing) Seq() int { return w.seq }

// LiveBuckets is the current number of live (unspilled) buckets.
func (w *WindowRing) LiveBuckets() int { return len(w.order) }

// CategoryTotals sums the all-time per-category connection counters across
// every accumulator without a full merge — cheap enough for a metrics
// scrape. Chains counts observations (as in Table 2 before finalize), and
// distinct client IPs are not derivable without a merge, so ClientIPs is
// zero here.
func (w *WindowRing) CategoryTotals() map[chain.Category]CategoryStats {
	out := make(map[chain.Category]CategoryStats)
	w.each(func(pr *partialReport) {
		for cat, cs := range pr.Table2 {
			t := out[cat]
			t.Chains += cs.Chains
			t.Conns += cs.Conns
			t.Established += cs.Established
			out[cat] = t
		}
	})
	return out
}

// ConnTotals sums the all-time §6.3 connection counters (TLS 1.3-hidden and
// certificate-visible) across every accumulator.
func (w *WindowRing) ConnTotals() (tls13, visible int64) {
	w.each(func(pr *partialReport) {
		tls13 += pr.Sec63.TLS13Conns
		visible += pr.Sec63.VisibleConns
	})
	return tls13, visible
}

// WindowRingSnapshot is the ring's serializable state. Certificates are
// deduplicated into one table shared by the spill and every bucket; equal
// ring states marshal to identical JSON (sorted buckets, sorted
// certificates, canonical partial encoding).
type WindowRingSnapshot struct {
	IntervalNS int64                    `json:"interval_ns"`
	Seq        int                      `json:"seq"`
	WM         certmodel.TimeSnapshot   `json:"wm"`
	WMSet      bool                     `json:"wm_set,omitempty"`
	Certs      []certmodel.MetaSnapshot `json:"certs,omitempty"`
	Spill      encodedPartial           `json:"spill"`
	Buckets    []windowBucketSnapshot   `json:"buckets,omitempty"`
}

type windowBucketSnapshot struct {
	Idx     int64          `json:"idx"`
	Partial encodedPartial `json:"partial"`
}

// Snapshot serializes the ring without perturbing it: each bucket's shards
// are collapsed into a throwaway accumulator (merge is non-destructive) and
// encoded as one partial. The snapshot holds the live spill, so marshal it
// before the ring changes.
func (w *WindowRing) Snapshot() *WindowRingSnapshot {
	certs := certmodel.CertTable{}
	s := &WindowRingSnapshot{
		IntervalNS: int64(w.cfg.Interval),
		Seq:        w.seq,
		WMSet:      w.wmSet,
	}
	if w.wmSet {
		s.WM = certmodel.SnapTime(w.wm)
	}
	s.Spill = w.spill.encode(certs)
	for _, idx := range w.order {
		collapsed := w.p.newPartial()
		w.buckets[idx].each(collapsed.merge)
		s.Buckets = append(s.Buckets, windowBucketSnapshot{Idx: idx, Partial: collapsed.encode(certs)})
	}
	s.Certs = certs.Snapshot()
	return s
}

// RestoreWindowRing rebuilds a ring from a snapshot. The snapshot's interval
// is authoritative (a config mismatch would silently split buckets);
// Buckets/Workers come from cfg, and a smaller restored depth spills the
// oldest buckets immediately.
func RestoreWindowRing(p *Pipeline, cfg WindowConfig, s *WindowRingSnapshot) (*WindowRing, error) {
	if s == nil {
		return NewWindowRing(p, cfg), nil
	}
	if s.IntervalNS > 0 {
		cfg.Interval = time.Duration(s.IntervalNS)
	}
	w := NewWindowRing(p, cfg)
	certs, err := certmodel.RestoreCertTable(s.Certs)
	if err != nil {
		return nil, fmt.Errorf("analysis: restore ring: %w", err)
	}
	if w.spill, err = p.decodePartial(s.Spill, certs); err != nil {
		return nil, fmt.Errorf("analysis: restore spill: %w", err)
	}
	for _, bs := range s.Buckets {
		if w.bucket(bs.Idx)[0], err = p.decodePartial(bs.Partial, certs); err != nil {
			return nil, fmt.Errorf("analysis: restore bucket %d: %w", bs.Idx, err)
		}
	}
	w.seq = s.Seq
	if s.WMSet {
		w.wm, w.wmSet = s.WM.Time(), true
	}
	w.evict()
	return w, nil
}
