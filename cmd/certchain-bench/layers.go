package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"certchains/internal/analysis"
	"certchains/internal/campus"
	"certchains/internal/certmodel"
	"certchains/internal/chain"
	"certchains/internal/ingest"
	"certchains/internal/lint"
	"certchains/internal/zeek"
)

// profile is the traced run: the workload's own run once more with a span
// around every call into a layer, then one probe per layer over the same
// logs, each timing a public function from outside. Every workload reports
// every layer, so a change to one layer can be read on all four inputs.
//
// Probes whose time depends on the classifier's memo start from a freshly
// generated scenario: like the timed runs, they measure the cold path.
//
// A streaming or serving probe on a workload whose own run is another path
// sees only the first probeRows rows of the capture, which keeps the traced
// run of the chain-heavy workload inside the driver's time limit; the numbers
// are per row, and the README says which ones depend on how much was fed.
func profile(j *job) (*childResult, error) {
	l := &layers{
		j:   j,
		in:  &j.Inputs,
		tr:  newTracer(j.Rep),
		res: &childResult{Layers: make(map[string]float64)},
	}
	if err := l.run(); err != nil {
		return nil, err
	}
	if j.TracePath != "" {
		if err := l.tr.writeChromeTrace(j.TracePath); err != nil {
			return nil, err
		}
	}
	return l.res, nil
}

type layers struct {
	j   *job
	in  *inputs
	tr  *tracer
	res *childResult

	// The three paths over this input. The workload's own traced run fills
	// one; the probes fill the other two.
	pass  *childResult // a batch pass
	drain *childResult // a streaming drain
	serve *serveResult // a serving window
	// serveCuts is how many cuts that window had been fed when it closed.
	serveCuts int

	observations []*campus.Observation
}

// incjoinChunk is how many tailed records the tail probe hands the joiner
// at a time.
const incjoinChunk = 1 << 14

// probeRows caps the capture a cross-path streaming or serving probe feeds.
const probeRows = 1 << 16

// measure is the cost of one probed call.
type measure struct {
	d             time.Duration
	allocs, bytes uint64
}

func (m *measure) add(o measure) {
	m.d += o.d
	m.allocs += o.allocs
	m.bytes += o.bytes
}

func (m measure) ns() float64 { return float64(m.d.Nanoseconds()) }
func (m measure) ms() float64 { return m.d.Seconds() * 1e3 }

// timed runs fn under a span of the given parent and measures it. A probe of
// its own (no parent) starts from a collected heap, so that it does not pay
// for the garbage of the probe before it.
func (l *layers) timed(layer, name string, parent int, fn func() error) (measure, error) {
	if parent == noParent {
		runtime.GC()
	}
	sp := l.tr.start(layer, name, parent)
	a0, b0 := mallocs()
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	a1, b1 := mallocs()
	l.tr.end(sp)
	return measure{d: d, allocs: a1 - a0, bytes: b1 - b0}, err
}

// fresh regenerates the scenario, for a cold classifier.
func (l *layers) fresh() (*campus.Scenario, *analysis.Pipeline, error) {
	sc, err := generate(l.in.Workload, l.in.Seed)
	if err != nil {
		return nil, nil, err
	}
	return sc, newPipeline(l.in.Workload, sc), nil
}

func (l *layers) run() error {
	_, p, err := l.fresh()
	if err != nil {
		return err
	}
	// The workload's own run, traced, first: it is the one compared with
	// the untraced child for the tracing overhead. Span 0 is its root.
	own := &childResult{}
	window, err := runKind(l.j, p, l.tr, own, l.snapshotProbe(p))
	if err != nil {
		return err
	}
	switch l.in.Workload.Kind {
	case kindBatch:
		l.pass = own
	case kindStream:
		l.drain = own
	case kindServe:
		l.serve, l.serveCuts = window, own.CutsFed
	}
	l.res.book(own.tally)
	l.res.Series, l.res.TextSHA, l.res.JSONSHA, l.res.CutsFed = own.Series, own.TextSHA, own.JSONSHA, own.CutsFed
	_, wall, uncovered := l.tr.selfTimes(0)
	l.res.Layers["harness.trace_uncovered_pct"] = 100 * uncovered.Seconds() / wall.Seconds()

	for _, probe := range []func() error{l.batchProbes, l.streamProbes, l.serveProbes} {
		if err := probe(); err != nil {
			return err
		}
	}
	return nil
}

// withLogs opens both logs for one probe.
func (l *layers) withLogs(fn func(ssl, x509 io.Reader) error) error {
	ssl, x509, err := l.in.open()
	if err != nil {
		return err
	}
	defer ssl.Close()
	defer x509.Close()
	return fn(ssl, x509)
}

// countLines is the floor under any decoder: read both files, count '\n'.
func countLines(paths ...string) (int64, error) {
	var n int64
	buf := make([]byte, 1<<16)
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return 0, err
		}
		for {
			k, err := f.Read(buf)
			n += int64(bytes.Count(buf[:k], []byte{'\n'}))
			if err == io.EOF {
				break
			}
			if err != nil {
				f.Close()
				return 0, err
			}
		}
		f.Close()
	}
	return n, nil
}

// batchProbes times the batch path's layers one call at a time.
func (l *layers) batchProbes() error {
	in, out := l.in, l.res.Layers
	rows := float64(in.rows())

	if l.pass == nil {
		_, p, err := l.fresh()
		if err != nil {
			return err
		}
		l.pass = &childResult{}
		if err := batchPass(in, p, l.j.OutDir, l.tr, l.pass); err != nil {
			return err
		}
		l.res.book(l.pass.tally)
	}
	passNS := rows / l.pass.Series["rows_per_s"][0] * 1e9

	var lines int64
	m, err := l.timed("harness", "harness.linescan", noParent, func() (err error) {
		lines, err = countLines(in.SSL, in.X509)
		return err
	})
	if err != nil {
		return err
	}
	if lines < in.rows() {
		l.res.fail(1, "line scan saw %d lines for %d rows", lines, in.rows())
	}
	out["harness.linescan_ns_per_row"] = m.ns() / rows

	join := zeek.FastJoin
	if in.Workload.JSON {
		join = zeek.FastJoinJSON
	}
	var joined, joinErrs int64
	fj, err := l.timed("zeek", "zeek.fastjoin", noParent, func() error {
		return l.withLogs(func(ssl, x509 io.Reader) error {
			return join(ssl, x509, func(_ *zeek.Connection, err error) error {
				if err != nil {
					joinErrs++
				} else {
					joined++
				}
				return nil
			})
		})
	})
	if err != nil {
		return err
	}
	l.res.Attempted += in.SSLRows
	l.res.fail(in.SSLRows-joined, "FastJoin delivered %d of %d ssl rows (%d join errors)", joined, in.SSLRows, joinErrs)
	out["zeek.fastjoin_ns_per_row"] = fj.ns() / rows
	out["zeek.fastjoin_mb_per_s"] = float64(in.bytes()) / 1e6 / fj.d.Seconds()
	out["zeek.fastjoin_allocs_per_row"] = float64(fj.allocs) / rows
	out["zeek.fastjoin_bytes_per_row"] = float64(fj.bytes) / rows
	out["zeek.fastjoin_join_errors"] = float64(joinErrs)
	out["zeek.fastjoin_pass_share_pct"] = 100 * fj.ns() / passNS

	load, err := l.timed("analysis", "analysis.load", noParent, func() error {
		return l.withLogs(func(ssl, x509 io.Reader) error {
			return analysis.LoadFormatFunc(in.format(), ssl, x509, func(*campus.Observation) error { return nil })
		})
	})
	if err != nil {
		return err
	}
	out["analysis.load_ns_per_row"] = load.ns() / rows
	out["analysis.load_allocs_per_row"] = float64(load.allocs) / rows
	out["analysis.aggregate_self_ns_per_row"] = (load.ns() - fj.ns()) / rows

	if err := l.withLogs(func(ssl, x509 io.Reader) (err error) {
		l.observations, err = analysis.LoadFormat(in.format(), ssl, x509)
		return err
	}); err != nil {
		return err
	}
	obs := l.observations
	if len(obs) < 2 {
		return fmt.Errorf("only %d observations loaded", len(obs))
	}
	nObs := float64(len(obs))

	sc, p, err := l.fresh()
	if err != nil {
		return err
	}
	seq := p.NewAccumulator()
	observe, _ := l.timed("analysis", "analysis.observe", noParent, func() error {
		for _, o := range obs {
			seq.Observe(o)
		}
		return nil
	})
	out["analysis.observe_ns_per_obs"] = observe.ns() / nObs
	out["analysis.observe_allocs_per_obs"] = float64(observe.allocs) / nObs

	var width [2]measure
	for i := range width {
		_, p, err := l.fresh()
		if err != nil {
			return err
		}
		width[i], _ = l.timed("analysis", fmt.Sprintf("analysis.accumulate_w%d", i+1), noParent, func() error {
			batches := make(chan []*campus.Observation, 2) // AccumulateStreamTracer's own depth
			go func() {
				for lo := 0; lo < len(obs); lo += analysis.DefaultBatch {
					batches <- obs[lo:min(lo+analysis.DefaultBatch, len(obs))]
				}
				close(batches)
			}()
			p.AccumulateBatches(batches, i+1)
			return nil
		})
	}
	out["analysis.accumulate_w2_speedup"] = width[0].ns() / width[1].ns()

	// The distinct chains, in first-seen order.
	var chains []certmodel.Chain
	var keys []string
	seen := make(map[string]bool)
	for _, o := range obs {
		if len(o.Chain) == 0 {
			continue
		}
		if k := o.Chain.Key(); !seen[k] {
			seen[k] = true
			keys = append(keys, k)
			chains = append(chains, o.Chain)
		}
	}
	if len(chains) == 0 {
		return fmt.Errorf("no chains among %d observations", len(obs))
	}
	nChains := float64(len(chains))
	// Analyze never memoizes and the keyed probe wants a warm memo, so the
	// observe probe's scenario serves from here on.
	cl := sc.Classifier
	analyses := make([]*chain.Analysis, len(chains))
	m, _ = l.timed("chain", "chain.analyze", noParent, func() error {
		for i, ch := range chains {
			analyses[i] = cl.Analyze(ch)
		}
		return nil
	})
	out["chain.analyze_ns_per_chain"] = m.ns() / nChains
	for i, ch := range chains {
		cl.AnalyzeKeyed(keys[i], ch)
	}
	m, _ = l.timed("chain", "chain.analyze_keyed_hit", noParent, func() error {
		for i, ch := range chains {
			cl.AnalyzeKeyed(keys[i], ch)
		}
		return nil
	})
	out["chain.analyze_keyed_hit_ns"] = m.ns() / nChains
	linter := lint.New(cl, lint.Config{Now: sc.End(), Profile: lint.ProfilePaper})
	m, _ = l.timed("lint", "lint.chain", noParent, func() error {
		for i, ch := range chains {
			linter.ChainAnalyzed(ch, analyses[i])
		}
		return nil
	})
	out["lint.chain_ns_per_chain"] = m.ns() / nChains

	// Two halves, as two workers of the distributed topology would hold
	// them. The second half is built twice: once to merge into the live
	// first half, once to merge into the first half after a trip through
	// the state codec. The reference bytes both must finalize to are the
	// observe probe's: one accumulator, every observation in order.
	refText, refJSON, err := renderBoth(seq.Finalize())
	if err != nil {
		return err
	}
	half := len(obs) / 2
	first, second, second2 := p.NewAccumulator(), p.NewAccumulator(), p.NewAccumulator()
	for _, o := range obs[:half] {
		first.Observe(o)
	}
	for _, o := range obs[half:] {
		second.Observe(o)
		second2.Observe(o)
	}
	second.OffsetSeq(int64(half))
	second2.OffsetSeq(int64(half))

	var state []byte
	m, err = l.timed("analysis", "analysis.state_encode", noParent, func() (err error) {
		state, err = first.EncodeState()
		return err
	})
	if err != nil {
		return err
	}
	out["analysis.state_encode_ms"] = m.ms()
	out["analysis.state_bytes_per_obs"] = float64(len(state)) / float64(half)
	var decoded *analysis.Accumulator
	m, err = l.timed("analysis", "analysis.state_decode", noParent, func() (err error) {
		decoded, err = p.DecodeState(state)
		return err
	})
	if err != nil {
		return err
	}
	out["analysis.state_decode_ms"] = m.ms()

	merge, _ := l.timed("analysis", "analysis.merge", noParent, func() error {
		first.Merge(second)
		return nil
	})
	out["analysis.merge_ms"] = merge.ms()
	out["analysis.merge_allocs"] = float64(merge.allocs)
	var report *analysis.Report
	finalize, _ := l.timed("analysis", "analysis.finalize", noParent, func() error {
		report = first.Finalize()
		return nil
	})
	out["analysis.finalize_ms"] = finalize.ms()
	out["analysis.finalize_allocs"] = float64(finalize.allocs)
	out["analysis.observe_pass_share_pct"] = 100 * (observe.ns() + merge.ns() + finalize.ns()) / passNS
	var text, js []byte
	m, _ = l.timed("analysis", "analysis.render", noParent, func() error {
		text = []byte(report.Render())
		return nil
	})
	out["analysis.render_ms"] = m.ms()
	m, err = l.timed("analysis", "analysis.export_json", noParent, func() (err error) {
		js, err = report.JSON()
		return err
	})
	if err != nil {
		return err
	}
	out["analysis.export_json_ms"] = m.ms()

	l.res.Attempted += 2
	if !bytes.Equal(text, refText) || !bytes.Equal(js, refJSON) {
		l.res.fail(1, "two merged halves finalize to different bytes than one sequential pass")
	}
	decoded.Merge(second2)
	text, js, err = renderBoth(decoded.Finalize())
	if err != nil {
		return err
	}
	if !bytes.Equal(text, refText) || !bytes.Equal(js, refJSON) {
		l.res.fail(1, "a half sent through EncodeState/DecodeState finalizes to different bytes")
	}
	return nil
}

func renderBoth(r *analysis.Report) (text, js []byte, err error) {
	js, err = r.JSON()
	return []byte(r.Render()), js, err
}

// snapshotProbe returns the hook streamDrain calls on the drained ingestor:
// snapshot it, restore the snapshot, and compare the two reports.
func (l *layers) snapshotProbe(p *analysis.Pipeline) func(*ingest.Ingestor, ingest.Config) error {
	return func(ing *ingest.Ingestor, cfg ingest.Config) error {
		out := l.res.Layers
		out["analysis.ring_live_buckets"] = float64(ing.Stats().LiveBuckets)
		var data []byte
		m, err := l.timed("ingest", "ingest.snapshot", noParent, func() (err error) {
			data, err = ing.Snapshot()
			return err
		})
		if err != nil {
			return err
		}
		out["ingest.snapshot_ms"] = m.ms()
		out["ingest.snapshot_mb"] = float64(len(data)) / 1e6
		var restored *ingest.Ingestor
		m, err = l.timed("ingest", "ingest.restore", noParent, func() (err error) {
			restored, err = ingest.Restore(p, cfg, data)
			return err
		})
		if err != nil {
			return err
		}
		defer restored.Close()
		out["ingest.restore_ms"] = m.ms()
		l.res.Attempted++
		if restored.Report(0).Render() != ing.Report(0).Render() {
			l.res.fail(1, "restored ingestor reports differently from the one snapshotted")
		}
		return nil
	}
}

// streamProbes times the streaming path's layers.
func (l *layers) streamProbes() error {
	in, out := l.in, l.res.Layers
	rows := float64(in.rows())

	// Tailer and joiner in one pass over the complete files: the tailer's
	// records are buffered and handed to the joiner in chunks, and the time
	// inside the joiner is taken off the tailer's. The chunks are large so
	// that the two MemStats reads around each stay under 1 % of the pass.
	newDec := func() zeek.LineDecoder { return zeek.NewTSVDecoder() }
	if in.Workload.JSON {
		newDec = func() zeek.LineDecoder { return zeek.NewJSONDecoder() }
	}
	joiner := zeek.NewIncrementalJoiner(0, 0, func(*zeek.Connection) error { return nil })
	var incjoin measure
	var parseErrs, recordErrs int64
	tailSpan := l.tr.start("zeek", "zeek.tail", noParent)
	a0, b0 := mallocs()
	t0 := time.Now()
	for _, side := range []struct {
		path string
		add  func(zeek.Record) error
	}{{in.X509, joiner.AddX509Record}, {in.SSL, joiner.AddSSLRecord}} {
		var chunk []zeek.Record
		flush := func() {
			m, _ := l.timed("zeek", "zeek.incjoin", tailSpan, func() error {
				for _, rec := range chunk {
					if side.add(rec) != nil {
						recordErrs++
					}
				}
				return nil
			})
			incjoin.add(m)
			chunk = chunk[:0]
		}
		emit := func(rec zeek.Record) error {
			if chunk = append(chunk, rec); len(chunk) == incjoinChunk {
				flush()
			}
			return nil
		}
		t := zeek.NewTailer(side.path, newDec)
		err := t.Poll(emit)
		if err == nil {
			err = t.Finish(emit)
		}
		parseErrs += t.ParseErrors()
		t.Close()
		if err != nil {
			return err
		}
		flush()
	}
	m, err := l.timed("zeek", "zeek.incjoin", tailSpan, joiner.Finish)
	if err != nil {
		return err
	}
	incjoin.add(m)
	tail := measure{d: time.Since(t0)}
	a1, b1 := mallocs()
	l.tr.end(tailSpan)
	tail.allocs, tail.bytes = a1-a0, b1-b0
	out["zeek.tail_ns_per_row"] = (tail.ns() - incjoin.ns()) / rows
	out["zeek.tail_allocs_per_row"] = float64(tail.allocs-incjoin.allocs) / rows
	out["zeek.tail_parse_errors"] = float64(parseErrs)
	out["zeek.incjoin_ns_per_row"] = incjoin.ns() / rows
	out["zeek.incjoin_allocs_per_row"] = float64(incjoin.allocs) / rows
	js := joiner.Stats()
	out["zeek.incjoin_orphans"] = float64(js.Orphans)
	out["zeek.incjoin_forced"] = float64(js.Forced)
	l.res.Attempted += in.rows()
	l.res.fail(parseErrs+recordErrs+js.Orphans+js.Forced,
		"tail/join probe: %d parse errors, %d record errors, %d orphans, %d forced", parseErrs, recordErrs, js.Orphans, js.Forced)

	if l.drain == nil {
		_, p, err := l.fresh()
		if err != nil {
			return err
		}
		l.drain = &childResult{}
		if err := streamDrain(in.prefix(probeRows), p, l.j.OutDir, l.tr, l.drain, l.snapshotProbe(p)); err != nil {
			return err
		}
		l.res.book(l.drain.tally)
	}
	d := l.drain.Series
	out["ingest.poll_ns_per_row"] = sum(d["poll_ms"]) * 1e6 / sum(d["poll_rows"])
	out["ingest.poll_p99_ms"] = percentile(d["poll_ms"], 0.99)
	out["ingest.finish_ms"] = d["finish_ms"][0]
	out["zeek.incjoin_pending_max"] = d["pending_max"][0]
	out["harness.append_s"] = d["append_s"][0]
	out["ingest.stream_to_batch_time_ratio"] = l.pass.Series["rows_per_s"][0] / d["rows_per_s"][0]
	out["ingest.stream_to_batch_allocs_ratio"] = d["allocs_per_row"][0] / l.pass.Series["allocs_per_row"][0]

	// The ring alone: the batch-loaded observations, grouped by the window
	// their last connection falls in, folded window by window.
	_, p, err := l.fresh()
	if err != nil {
		return err
	}
	interval := in.ringInterval()
	ring := analysis.NewWindowRing(p, analysis.WindowConfig{Interval: interval, Buckets: ringBuckets, Workers: childProcs})
	groups := make(map[int64][]*campus.Observation)
	for _, o := range l.observations {
		w := o.Last.UnixNano() / int64(interval)
		groups[w] = append(groups[w], o)
	}
	windows := make([]int64, 0, len(groups))
	for w := range groups {
		windows = append(windows, w)
	}
	sort.Slice(windows, func(i, j int) bool { return windows[i] < windows[j] })
	m, _ = l.timed("analysis", "analysis.ring_fold", noParent, func() error {
		for _, w := range windows {
			ring.ObserveBatch(groups[w])
		}
		return nil
	})
	out["analysis.ring_fold_ns_per_obs"] = m.ns() / float64(len(l.observations))
	for _, q := range []struct {
		name   string
		window time.Duration
	}{{"analysis.ring_report_all", 0}, {"analysis.ring_report_window", 2 * interval}} {
		var ms []float64
		for i := 0; i < 5; i++ {
			m, _ := l.timed("analysis", q.name, noParent, func() error {
				_ = ring.Report(q.window).Render()
				return nil
			})
			ms = append(ms, m.ms())
		}
		out[q.name+"_ms"] = percentile(ms, 0.5)
	}
	return nil
}

// serveProbes reads the serving layer's metrics off a serving window — the
// workload's own if it is a serving run, a short one otherwise — and polls
// the window's cuts again without readers.
func (l *layers) serveProbes() error {
	in := l.in
	if l.serve == nil {
		in = in.prefix(probeRows)
		_, p, err := l.fresh()
		if err != nil {
			return err
		}
		window := &childResult{}
		if l.serve, err = serveWindow(in, p, l.j.OutDir, l.j.ProbeSeconds, l.tr, window); err != nil {
			return err
		}
		l.serveCuts = window.CutsFed
		l.res.book(window.tally)
	}
	_, p, err := l.fresh()
	if err != nil {
		return err
	}
	if err := l.serve.quietReplay(in, p, l.j.OutDir, l.serveCuts); err != nil {
		return err
	}
	l.serve.layers(l.res.Layers)
	return nil
}
