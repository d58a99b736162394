package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"certchains/internal/analysis"
	"certchains/internal/campus"
	"certchains/internal/certmodel"
	"certchains/internal/obs"
	"certchains/internal/resilience"
)

// Lease protocol defaults: a worker that has not acknowledged its partition
// as running within the TTL (renewed on every successful status poll) loses
// it, and the partition is requeued to another worker.
const (
	DefaultLeaseTTL = 3 * time.Second
	DefaultPoll     = 150 * time.Millisecond
)

// DefaultTimeout bounds each coordinator HTTP request.
const DefaultTimeout = 10 * time.Second

var defaultHTTPClient = &http.Client{Timeout: DefaultTimeout}

// maxWireBytes caps any single wire response read (partial states dominate).
const maxWireBytes = 64 << 20

// CoordConfig configures a coordinator.
type CoordConfig struct {
	// Pipeline must match the workers' (seed, scale, lint profile): it
	// decodes their partial state and recomputes the same analyses. Its
	// Workers is RunLocal's in-process pool width per partition; any width
	// produces identical reports.
	Pipeline *analysis.Pipeline
	// Workers are the shard daemons' base URLs ("http://127.0.0.1:9001").
	Workers []string
	// Format is the partition log format (RunLocal reads partitions itself).
	Format analysis.Format
	// LeaseTTL and Poll shape the lease protocol; zero selects the
	// defaults above.
	LeaseTTL time.Duration
	Poll     time.Duration
	// Retry is the per-request budget for assignment, status, and partial
	// fetches. The zero value makes single attempts; cmd installs
	// resilience.DefaultPolicy.
	Retry resilience.Policy
	// HTTPClient defaults to a shared client with DefaultTimeout — never
	// http.DefaultClient, which waits forever on a dead worker.
	HTTPClient *http.Client
	// Registry receives the coordinator's lease-protocol metrics; nil
	// allocates one.
	Registry *obs.Registry
	// Tracer, when set, records the dist stage spans (dist-ingest,
	// dist-merge, finalize) — the same fixed set at every topology, so the
	// manifest's deterministic subset stays topology-invariant. Worker span
	// sets never land here; they ride Result.PartitionTraces into the
	// spliced cross-process trace artifact only.
	Tracer *obs.Tracer
	// RunID names this run in trace propagation: assignments carry it, and
	// the coordinator splices only span sets echoed under it, so a worker
	// re-serving a partition ingested for an earlier run cannot put stale
	// spans in this run's trace. Empty derives one from the lease clock.
	RunID string
	// FS is RunLocal's partition-read seam; nil uses the real filesystem.
	FS resilience.FS
	// Now injects the lease clock; nil uses the wall clock. Report bytes
	// never depend on it.
	Now func() time.Time
	// Logf, when set, receives diagnostic lines.
	Logf func(format string, args ...any)
}

// Coordinator drives the distributed run: discover → assign under lease →
// poll → pull partials → rebase → merge → finalize.
type Coordinator struct {
	cfg     CoordConfig
	metrics *CoordMetrics
	fs      resilience.FS
}

// Result is one completed run, whichever topology produced it. Report,
// Inputs, and Observations are topology-invariant; Requeues and Duplicates
// count the lease protocol's churn (always zero in RunLocal).
type Result struct {
	Report       *analysis.Report
	Inputs       []obs.InputDigest
	Observations int64
	Partitions   int
	Requeues     int
	Duplicates   int
	// WorkerMetrics is the merged metric shard of every worker that
	// contributed a partial (nil in RunLocal).
	WorkerMetrics *obs.Registry
	// RunID is the trace ID the run propagated; PartitionTraces are the
	// span sets workers shipped back under it, one per merged partition
	// (empty in RunLocal, and for workers running a pre-trace wire
	// version). ProcessTraces splices them into the cross-process artifact.
	RunID           string
	PartitionTraces []PartitionTrace
}

// PartitionTrace is one merged partition's span set, attributed to the
// worker whose partial won the merge.
type PartitionTrace struct {
	Partition Partition
	Worker    string
	Spans     []obs.SpanSnapshot
}

// NewCoordinator builds a coordinator over cfg.
func NewCoordinator(cfg CoordConfig) *Coordinator {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.Poll <= 0 {
		cfg.Poll = DefaultPoll
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.Now == nil {
		cfg.Now = wallNow
	}
	fs := cfg.FS
	if fs == nil {
		fs = resilience.OS
	}
	return &Coordinator{cfg: cfg, metrics: NewCoordMetrics(cfg.Registry), fs: fs}
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

func (c *Coordinator) httpClient() *http.Client {
	if c.cfg.HTTPClient != nil {
		return c.cfg.HTTPClient
	}
	return defaultHTTPClient
}

// lease is the coordinator-side record of one outstanding assignment.
type lease struct {
	part     Partition
	worker   string
	token    string
	deadline time.Time
}

// partResult is one partition's merged-exactly-once contribution.
type partResult struct {
	acc    *analysis.Accumulator
	inputs []obs.InputDigest
}

// Run executes the distributed topology over parts and returns the merged
// result. Partitions are assigned round-robin; leases renew on successful
// status polls showing the partition running or done; expiry, reported
// failure, worker death, and undecodable state all requeue the partition.
// Completions are merged exactly once per partition ID — late arrivals
// from superseded attempts are counted as duplicates and discarded.
func (c *Coordinator) Run(ctx context.Context, parts []Partition) (*Result, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("dist: no partitions")
	}
	if len(c.cfg.Workers) == 0 {
		return nil, fmt.Errorf("dist: no workers")
	}
	runID := c.cfg.RunID
	if runID == "" {
		// Derived from the injected lease clock — operational identity only,
		// never report bytes.
		runID = fmt.Sprintf("run-%d", c.cfg.Now().UnixNano())
	}
	res := &Result{Partitions: len(parts), RunID: runID}
	queue := append([]Partition(nil), parts...)
	leases := make(map[string]*lease)
	completed := make(map[string]*partResult)
	// handled dedupes per (worker, partition, lease token): each attempt's
	// completion is acted on once, whether merged or discarded.
	handled := make(map[string]bool)
	attempts := make(map[string]int)
	lastWorker := make(map[string]string)
	healthy := make(map[string]bool, len(c.cfg.Workers))
	for _, wk := range c.cfg.Workers {
		healthy[wk] = true
	}
	snaps := make(map[string]*obs.RegistrySnapshot)
	cursor := 0

	requeue := func(id, reason string) {
		ls := leases[id]
		if ls == nil {
			return
		}
		delete(leases, id)
		queue = append(queue, ls.part)
		res.Requeues++
		c.metrics.requeued.Inc()
		c.logf("dist: requeued %s from %s (%s)", id, ls.worker, reason)
	}

	for len(completed) < len(parts) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Assign everything queued, round-robin over healthy workers,
		// steering a requeued partition away from its previous holder.
		for pass := len(queue); pass > 0 && len(queue) > 0; pass-- {
			part := queue[0]
			wk, ok := c.pickWorker(healthy, &cursor, lastWorker[part.ID])
			if !ok {
				break
			}
			queue = queue[1:]
			attempts[part.ID]++
			token := fmt.Sprintf("%s#%d", part.ID, attempts[part.ID])
			if err := c.assign(ctx, wk, Assignment{Lease: token, Partition: part, Trace: runID}); err != nil {
				healthy[wk] = false
				queue = append(queue, part)
				c.logf("dist: assign %s to %s: %v", part.ID, wk, err)
				continue
			}
			lastWorker[part.ID] = wk
			leases[part.ID] = &lease{part: part, worker: wk, token: token, deadline: c.cfg.Now().Add(c.cfg.LeaseTTL)}
			c.metrics.assigned.Inc()
		}

		// Poll every worker; a successful poll is the lease heartbeat.
		for _, wk := range c.cfg.Workers {
			st, err := c.fetchStatus(ctx, wk)
			if err != nil {
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				healthy[wk] = false
				continue
			}
			healthy[wk] = true
			byID := make(map[string]PartitionStatus, len(st.Partitions))
			for _, ps := range st.Partitions {
				byID[ps.ID] = ps
			}
			now := c.cfg.Now()
			for _, id := range sortedLeaseIDs(leases, wk) {
				ls := leases[id]
				ps, ok := byID[id]
				if !ok || ps.Lease != ls.token {
					// Assignment not (or no longer) acknowledged under this
					// token; the deadline decides.
					continue
				}
				switch ps.State {
				case StateRunning:
					ls.deadline = now.Add(c.cfg.LeaseTTL)
				case StateDone:
					key := wk + "|" + id + "|" + ls.token
					if handled[key] {
						break
					}
					resp, err := c.fetchPartial(ctx, wk, id)
					if err != nil {
						if ctx.Err() != nil {
							return nil, ctx.Err()
						}
						healthy[wk] = false
						break
					}
					if resp.ID != id || resp.Lease != ls.token {
						// Fencing: state from another attempt.
						break
					}
					handled[key] = true
					acc, err := c.cfg.Pipeline.DecodeState(resp.State)
					if err != nil {
						requeue(id, fmt.Sprintf("undecodable state: %v", err))
						break
					}
					completed[id] = &partResult{acc: acc, inputs: resp.Inputs}
					if resp.Trace == runID && len(resp.Spans) > 0 {
						res.PartitionTraces = append(res.PartitionTraces, PartitionTrace{
							Partition: ls.part, Worker: wk, Spans: resp.Spans,
						})
					}
					snaps[wk] = resp.Metrics
					delete(leases, id)
					c.metrics.completed.Inc()
					c.metrics.stateBytes.Add(float64(len(resp.State)))
					c.logf("dist: merged %s from %s (%d observations)", id, wk, acc.Observations())
				case StateFailed:
					requeue(id, "worker reported failure: "+ps.Error)
				}
			}
			// Completions for already-merged partitions from superseded
			// attempts: exactly-once means discard and count.
			for _, ps := range st.Partitions {
				if ps.State != StateDone {
					continue
				}
				if _, done := completed[ps.ID]; !done {
					continue
				}
				key := wk + "|" + ps.ID + "|" + ps.Lease
				if handled[key] {
					continue
				}
				handled[key] = true
				res.Duplicates++
				c.metrics.duplicates.Inc()
				c.logf("dist: duplicate completion of %s from %s discarded", ps.ID, wk)
			}
		}

		// Expire leases whose heartbeat lapsed.
		now := c.cfg.Now()
		for _, id := range sortedIDs(leases) {
			if now.After(leases[id].deadline) {
				requeue(id, "lease expired")
			}
		}
		if len(completed) == len(parts) {
			break
		}
		if err := resilience.Sleep(ctx, c.cfg.Poll); err != nil {
			return nil, err
		}
	}

	if len(snaps) > 0 {
		merged := obs.NewRegistry()
		for _, wk := range c.cfg.Workers {
			s := snaps[wk]
			if s == nil {
				continue
			}
			shard, err := obs.RegistryFromSnapshot(s)
			if err != nil {
				c.logf("dist: worker %s metrics shard: %v", wk, err)
				continue
			}
			if err := merged.Merge(shard); err != nil {
				c.logf("dist: merge %s metrics shard: %v", wk, err)
			}
		}
		res.WorkerMetrics = merged
	}
	return c.assemble(res, parts, completed)
}

// RunLocal executes the same run in-process: every partition is ingested
// locally (a Pipeline.Workers-wide pool per partition) and merged through the
// identical rebase path, emitting the identical stage set. This is the
// reference rung of the equivalence claim — and the fallback when no
// workers are up.
func (c *Coordinator) RunLocal(ctx context.Context, parts []Partition) (*Result, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("dist: no partitions")
	}
	res := &Result{Partitions: len(parts)}
	completed := make(map[string]*partResult)
	for _, part := range parts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		acc, inputs, err := ingestPartition(ctx, c.cfg.Pipeline, c.fs, c.cfg.Format, 0, part, nil)
		if err != nil {
			return nil, err
		}
		completed[part.ID] = &partResult{acc: acc, inputs: inputs}
	}
	return c.assemble(res, parts, completed)
}

// assemble rebases, merges, and finalizes the completed partials in
// partition-index order. The three stage spans — dist-ingest (total
// observations), dist-merge (partition count), finalize — are the full
// deterministic stage set, identical at every topology.
func (c *Coordinator) assemble(res *Result, parts []Partition, completed map[string]*partResult) (*Result, error) {
	ordered := append([]Partition(nil), parts...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Index < ordered[j].Index })
	var total int64
	for _, part := range ordered {
		pr := completed[part.ID]
		if pr == nil {
			return nil, fmt.Errorf("dist: partition %s never completed", part.ID)
		}
		total += pr.acc.Observations()
	}
	isp := c.cfg.Tracer.Start("dist-ingest", "dist/ingest").SetRecords(total)
	isp.End()

	msp := c.cfg.Tracer.Start("dist-merge", "dist/merge").
		SetRecords(int64(len(ordered))).Arg("partitions", int64(len(ordered)))
	t0 := c.cfg.Now()
	var merged *analysis.Accumulator
	var base int64
	for _, part := range ordered {
		pr := completed[part.ID]
		pr.acc.OffsetSeq(base)
		base += pr.acc.Observations()
		res.Inputs = append(res.Inputs, pr.inputs...)
		if merged == nil {
			merged = pr.acc
		} else {
			merged.Merge(pr.acc)
		}
	}
	msp.End()
	c.metrics.mergeSec.Observe(c.cfg.Now().Sub(t0).Seconds())

	fsp := c.cfg.Tracer.Start("finalize", "finalize")
	res.Report = merged.Finalize()
	fsp.End()
	res.Observations = total
	sort.Slice(res.Inputs, func(i, j int) bool { return res.Inputs[i].Path < res.Inputs[j].Path })
	return res, nil
}

// pickWorker selects the next healthy worker round-robin, steering away
// from avoid when an alternative exists.
func (c *Coordinator) pickWorker(healthy map[string]bool, cursor *int, avoid string) (string, bool) {
	n := len(c.cfg.Workers)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			wk := c.cfg.Workers[(*cursor+i)%n]
			if !healthy[wk] {
				continue
			}
			if pass == 0 && wk == avoid && n > 1 {
				continue
			}
			*cursor = (*cursor + i + 1) % n
			return wk, true
		}
	}
	return "", false
}

func sortedIDs(leases map[string]*lease) []string {
	ids := make([]string, 0, len(leases))
	for id := range leases {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

func sortedLeaseIDs(leases map[string]*lease, worker string) []string {
	ids := make([]string, 0, len(leases))
	for id, ls := range leases {
		if ls.worker == worker {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// assign POSTs a sealed assignment to the worker.
func (c *Coordinator) assign(ctx context.Context, worker string, a Assignment) error {
	body, err := sealWire(SchemaAssignment, a)
	if err != nil {
		return err
	}
	_, err = c.cfg.Retry.Do(ctx, "dist.assign", func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, worker+"/assign", strings.NewReader(string(body)))
		if err != nil {
			return resilience.MarkPermanent(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.httpClient().Do(req)
		if err != nil {
			return fmt.Errorf("dist: assign: %w", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			return fmt.Errorf("dist: assign: %w",
				&resilience.StatusError{Code: resp.StatusCode, Body: strings.TrimSpace(string(msg))})
		}
		return nil
	})
	return err
}

func (c *Coordinator) fetchStatus(ctx context.Context, worker string) (*StatusResponse, error) {
	var st StatusResponse
	if err := c.getSealed(ctx, "dist.status", worker+"/status", SchemaStatus, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

func (c *Coordinator) fetchPartial(ctx context.Context, worker, id string) (*PartialResponse, error) {
	var resp PartialResponse
	url := worker + "/partial?partition=" + id
	if err := c.getSealed(ctx, "dist.partial", url, SchemaPartial, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// getSealed GETs and opens a sealed wire response under the retry budget.
// Schema/version mismatches are permanent: retrying a cross-version peer
// cannot help.
func (c *Coordinator) getSealed(ctx context.Context, op, url, schema string, v any) error {
	_, err := c.cfg.Retry.Do(ctx, op, func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return resilience.MarkPermanent(err)
		}
		resp, err := c.httpClient().Do(req)
		if err != nil {
			return fmt.Errorf("dist: %s: %w", op, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			return fmt.Errorf("dist: %s: %w", op,
				&resilience.StatusError{Code: resp.StatusCode, Body: strings.TrimSpace(string(msg))})
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, maxWireBytes))
		if err != nil {
			return fmt.Errorf("dist: %s: %w", op, err)
		}
		if err := openWire(body, schema, v); err != nil {
			var se *certmodel.SchemaError
			if errors.As(err, &se) {
				return resilience.MarkPermanent(err)
			}
			return err
		}
		return nil
	})
	return err
}

// ingestPartition streams one partition through the Zeek loader into an
// in-process shard pool, digesting the raw inputs on the way past. Both the
// worker daemon and RunLocal ride this one path — the topology rungs differ
// only in where the returned accumulator is merged. tracer, when non-nil,
// receives the partition's spans: a dist-ingest span covering the whole
// ingest plus the stream stages underneath it. RunLocal passes nil — its
// coordinator tracer keeps the fixed topology-invariant stage set.
func ingestPartition(ctx context.Context, p *analysis.Pipeline, fs resilience.FS,
	format analysis.Format, throttle time.Duration, part Partition,
	tracer *obs.Tracer) (*analysis.Accumulator, []obs.InputDigest, error) {

	isp := tracer.Start("dist-ingest", "ingest/"+part.ID).
		SetTID(part.Index).Arg("partition", int64(part.Index))
	defer isp.End()
	sslF, err := fs.Open(part.SSL)
	if err != nil {
		return nil, nil, fmt.Errorf("dist: open %s: %w", part.SSL, err)
	}
	defer sslF.Close()
	x5F, err := fs.Open(part.X509)
	if err != nil {
		return nil, nil, fmt.Errorf("dist: open %s: %w", part.X509, err)
	}
	defer x5F.Close()
	sslR := obs.NewDigestReader(sslF)
	x5R := obs.NewDigestReader(x5F)

	// The pool folds each observation as the loader emits it, so the chaos
	// Throttle paces the fold itself, one sleep per observation.
	obsCh := make(chan *campus.Observation, 256)
	loadErr := make(chan error, 1)
	go func() {
		defer close(obsCh)
		loadErr <- analysis.LoadFormatFunc(format, sslR, x5R, func(o *campus.Observation) error {
			if throttle > 0 {
				if err := resilience.Sleep(ctx, throttle); err != nil {
					return err
				}
			}
			obsCh <- o
			return nil
		})
	}()
	// Partitions ingest concurrently on one Pipeline; a shallow copy gives
	// this one its own tracer and shares the read-only components.
	traced := *p
	traced.Tracer = tracer
	acc := traced.AccumulateStream(obsCh, p.Workers)
	if err := <-loadErr; err != nil {
		return nil, nil, fmt.Errorf("dist: load partition %s: %w", part.ID, err)
	}
	isp.SetRecords(acc.Observations())
	sslD, err := sslR.Digest(part.SSL)
	if err != nil {
		return nil, nil, err
	}
	x5D, err := x5R.Digest(part.X509)
	if err != nil {
		return nil, nil, err
	}
	return acc, []obs.InputDigest{sslD, x5D}, nil
}
