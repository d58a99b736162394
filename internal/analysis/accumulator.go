package analysis

import (
	"encoding/json"
	"fmt"
	"sync"

	"certchains/internal/campus"
	"certchains/internal/certmodel"
	"certchains/internal/obs"
)

// Accumulator is the exported shard accumulator: the unit of work the
// distributed topology moves between processes. A worker observes its
// partition into one Accumulator, encodes the state, and ships it to the
// coordinator, which decodes, rebases sequence tags, merges, and finalizes —
// exactly the in-process shard lifecycle of RunParallel, stretched across a
// process boundary. Because the underlying merge is commutative and the
// encoding canonical, N worker processes, N goroutines, and one sequential
// pass all finalize byte-identically over the same observation stream.
//
// An Accumulator is not safe for concurrent use; give each goroutine its own
// and Merge.
type Accumulator struct {
	pr *partialReport
	// n counts every observation folded in — it is the next local sequence
	// number, and after OffsetSeq the count still holds (offsets shift tags,
	// not cardinality).
	n int64
}

// StateSchema and StateVersion stamp the encoded accumulator state. A
// coordinator built against a different codec revision must refuse a
// worker's partial rather than mis-merge it, so DecodeState rejects any
// other pair with a *certmodel.SchemaError.
const (
	StateSchema  = "certchains/analysis-partial"
	StateVersion = 1
)

// accumState is the sealed payload: the encoded partial plus the
// deduplicated certificate table its chain keys reference, and the
// observation count the coordinator needs to rebase downstream partitions.
type accumState struct {
	Observations int64                    `json:"observations"`
	Certs        []certmodel.MetaSnapshot `json:"certs,omitempty"`
	Partial      encodedPartial           `json:"partial"`
}

// NewAccumulator creates an empty accumulator over the pipeline's
// components.
func (p *Pipeline) NewAccumulator() *Accumulator {
	return &Accumulator{pr: p.newPartial()}
}

// Observe folds one observation in. Observations are sequence-tagged in
// arrival order starting at zero; when this accumulator covers a later slice
// of a larger input, rebase with OffsetSeq before merging.
func (a *Accumulator) Observe(o *campus.Observation) {
	a.pr.observe(int(a.n), o)
	a.n++
}

// Observations is the number of observations folded in so far.
func (a *Accumulator) Observations() int64 { return a.n }

// Merge folds another accumulator into this one. Merging is commutative and
// associative over rebased accumulators; the source is read, not mutated.
func (a *Accumulator) Merge(o *Accumulator) {
	a.pr.merge(o.pr)
	a.n += o.n
}

// OffsetSeq shifts every sequence tag by base, rebasing a partition-local
// accumulator into the global input order: partition i's base is the total
// observation count of partitions 0..i-1. Only the Figure 1 outlier list
// carries sequence tags, so the shift is O(outliers).
func (a *Accumulator) OffsetSeq(base int64) {
	for i := range a.pr.Excluded {
		a.pr.Excluded[i][0] += int(base)
	}
}

// Finalize runs the finishing passes and returns the completed report. The
// accumulator should not be used afterwards.
func (a *Accumulator) Finalize() *Report { return a.pr.finalize() }

// EncodeState serializes the accumulator under the versioned state schema.
// The encoding is canonical — equal accumulators encode byte-identically —
// so digests over shipped partials are stable.
func (a *Accumulator) EncodeState() ([]byte, error) {
	certs := certmodel.CertTable{}
	partial := a.pr.encode(certs)
	return certmodel.Seal(StateSchema, StateVersion, accumState{
		Observations: a.n,
		Certs:        certs.Snapshot(),
		Partial:      partial,
	})
}

// DecodeState rebuilds an accumulator from EncodeState bytes. The bytes
// cross a process boundary, so every malformation — wrong schema, truncated
// JSON, dangling chain references — degrades to an error, never a panic; a
// schema/version mismatch is a *certmodel.SchemaError.
func (p *Pipeline) DecodeState(data []byte) (*Accumulator, error) {
	payload, err := certmodel.Open(data, StateSchema, StateVersion)
	if err != nil {
		return nil, fmt.Errorf("analysis: decode state: %w", err)
	}
	var st accumState
	if err := json.Unmarshal(payload, &st); err != nil {
		return nil, fmt.Errorf("analysis: decode state: %w", err)
	}
	if st.Observations < 0 {
		return nil, fmt.Errorf("analysis: decode state: negative observation count %d", st.Observations)
	}
	certs, err := certmodel.RestoreCertTable(st.Certs)
	if err != nil {
		return nil, fmt.Errorf("analysis: decode state: %w", err)
	}
	pr, err := p.decodePartial(st.Partial, certs)
	if err != nil {
		return nil, fmt.Errorf("analysis: decode state: %w", err)
	}
	return &Accumulator{pr: pr, n: st.Observations}, nil
}

// AccumulateStream consumes a producer channel through the worker pool and
// returns the merged (unfinalized) accumulator — RunStream without the
// finalize, which is what a distributed worker ships upstream. The stream is
// re-chunked into DefaultBatch-sized handoffs; sequence tags follow producer
// order, so the result finalizes byte-identically at any worker count. Spans
// go to the pipeline's tracer.
func (p *Pipeline) AccumulateStream(observations <-chan *campus.Observation, workers int) *Accumulator {
	batches := make(chan []*campus.Observation, 2)
	go func() {
		buf := make([]*campus.Observation, 0, DefaultBatch)
		for o := range observations {
			buf = append(buf, o)
			if len(buf) == DefaultBatch {
				batches <- buf
				buf = make([]*campus.Observation, 0, DefaultBatch)
			}
		}
		if len(buf) > 0 {
			batches <- buf
		}
		close(batches)
	}()
	return p.AccumulateBatches(batches, workers)
}

// sliceBatches feeds a materialized slice to the pool as DefaultBatch-sized
// sub-slices of its backing array. The goroutine exits once the pool has
// drained the channel, which AccumulateBatches always does.
func sliceBatches(observations []*campus.Observation) <-chan []*campus.Observation {
	// The depth matches AccumulateStream's re-chunker, so both feed the
	// dispatcher alike.
	batches := make(chan []*campus.Observation, 2)
	go func() {
		for lo := 0; lo < len(observations); lo += DefaultBatch {
			batches <- observations[lo:min(lo+DefaultBatch, len(observations))]
		}
		close(batches)
	}()
	return batches
}

// obsBatch is one worker handoff: a run of observations starting at global
// sequence number start.
type obsBatch struct {
	start int
	obs   []*campus.Observation
}

// AccumulateBatches is the one in-process observe pool, behind every batch
// entry point: producers that already hold observation slices hand them over
// whole, one channel send per batch instead of per record. A dispatcher tags
// each batch with its global sequence offset and hands it to whichever worker
// is free; each worker folds into a private partialReport, and the partials
// merge into one accumulator. Sequence tags follow the concatenation order of
// the incoming batches, so the result finalizes byte-identically to the
// per-record stream over the same observations, whatever the batch sizes and
// worker count. Shard spans start in shard order before the workers launch,
// so the span sequence — though not the durations — is deterministic.
func (p *Pipeline) AccumulateBatches(batches <-chan []*campus.Observation, workers int) *Accumulator {
	workers = normalizeWorkers(workers)
	stage := p.Tracer.Start("observe", "observe")

	work := make(chan obsBatch, 4*workers)
	// total is written only by the dispatcher, which exits before close(work);
	// every worker observes that close before wg.Done, so the read after
	// wg.Wait is ordered.
	var total int64
	go func() {
		seq := 0
		for b := range batches {
			if len(b) == 0 {
				continue
			}
			work <- obsBatch{start: seq, obs: b}
			seq += len(b)
		}
		total = int64(seq)
		close(work)
	}()

	partials := make([]*partialReport, workers)
	spans := make([]*obs.Span, workers)
	for w := 0; w < workers; w++ {
		spans[w] = p.Tracer.Start("observe-shard", fmt.Sprintf("observe/shard%d", w)).SetTID(w) //certchain:coldpath once per shard at stage setup
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pr := p.newPartial()
			for b := range work {
				for i, o := range b.obs {
					pr.observe(b.start+i, o)
				}
				spans[w].AddRecords(int64(len(b.obs)))
			}
			partials[w] = pr
			spans[w].End()
		}(w)
	}
	wg.Wait()
	stage.SetRecords(total)
	stage.End()

	msp := p.Tracer.Start("merge", "merge").Arg("partials", int64(len(partials)))
	merged := partials[0]
	for _, pr := range partials[1:] {
		merged.merge(pr)
	}
	msp.End()
	return &Accumulator{pr: merged, n: total}
}
