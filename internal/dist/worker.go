package dist

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"certchains/internal/analysis"
	"certchains/internal/obs"
	"certchains/internal/resilience"
)

// WorkerConfig configures one shard daemon.
type WorkerConfig struct {
	// Name identifies the worker in status responses and logs.
	Name string
	// Pipeline must be built from the same seed/scale (and lint profile) as
	// the coordinator's: partial state references analyses both sides must
	// compute identically.
	Pipeline *analysis.Pipeline
	// Format is the partition log format.
	Format analysis.Format
	// Goroutines is the in-process pool width per partition ingest; 0
	// selects GOMAXPROCS. Any width produces identical partial state.
	Goroutines int
	// Registry receives the worker's metrics shard; nil allocates one.
	Registry *obs.Registry
	// FS is the partition-read seam; nil uses the real filesystem. The
	// chaos suite injects read faults here.
	FS resilience.FS
	// Throttle, when positive, sleeps this long before each observation —
	// the chaos knob that holds a partition open so lease expiry and
	// mid-partition kills are testable.
	Throttle time.Duration
	// AccessLog, when set, receives one record per HTTP request (route,
	// method, code, bytes — no timestamps beyond the handler's own; latency
	// lives in the Registry's histograms).
	AccessLog *slog.Logger
	// Logf, when set, receives diagnostic lines.
	Logf func(format string, args ...any)
}

// Worker ingests assigned partitions and serves partial state:
//
//	POST /assign                      sealed Assignment
//	GET  /status                      sealed StatusResponse (heartbeat)
//	GET  /partial?partition=ID        sealed PartialResponse (404 until done)
//	GET  /healthz
//	GET  /metrics
//
// Each assignment runs in its own goroutine: the partition streams through
// the Zeek loader into analysis.AccumulateStream, and the resulting state
// is encoded eagerly — a completed partition costs its snapshot bytes, not
// its live accumulator.
type Worker struct {
	cfg     WorkerConfig
	reg     *obs.Registry
	metrics *WorkerMetrics
	fs      resilience.FS

	ctx    context.Context
	cancel context.CancelFunc

	mu    sync.Mutex
	parts map[string]*workerPartition
}

// workerPartition is the per-assignment state machine. Fields are guarded
// by Worker.mu; the ingest goroutine touches them only through setters.
type workerPartition struct {
	part    Partition
	lease   string
	trace   string
	state   string
	errMsg  string
	obsN    int64
	encoded []byte
	inputs  []obs.InputDigest
	// spans is the completed ingest's span set, recorded under trace. A
	// later assignment may swap the lease token freely, but trace stays
	// pinned to the ingest that actually produced the state — the
	// coordinator drops span sets from foreign runs.
	spans []obs.SpanSnapshot
}

// NewWorker builds a worker. Close releases its ingest goroutines.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Goroutines < 1 {
		cfg.Goroutines = 0 // AccumulateStream normalizes to GOMAXPROCS
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	fs := cfg.FS
	if fs == nil {
		fs = resilience.OS
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Worker{
		cfg:     cfg,
		reg:     reg,
		metrics: NewWorkerMetrics(reg),
		fs:      fs,
		ctx:     ctx,
		cancel:  cancel,
		parts:   make(map[string]*workerPartition),
	}
}

// Close cancels in-flight ingests (throttled sleeps return immediately).
func (w *Worker) Close() { w.cancel() }

// Registry exposes the worker's metrics shard.
func (w *Worker) Registry() *obs.Registry { return w.reg }

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// Handler returns the worker's HTTP surface, wrapped in the shared serving
// telemetry: per-route latency/size histograms and the request counter land
// in the worker's registry, so the coordinator's merged WorkerMetrics view
// includes each worker's serving profile alongside its ingest counters.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /assign", w.handleAssign)
	mux.HandleFunc("GET /status", w.handleStatus)
	mux.HandleFunc("GET /partial", w.handlePartial)
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(rw, "{\"status\":\"ok\",\"worker\":%q}\n", w.cfg.Name)
	})
	mux.Handle("GET /metrics", w.reg.Handler())
	return obs.NewHTTPMetrics(w.reg).Middleware(mux, w.cfg.AccessLog,
		"POST /assign", "GET /status", "GET /partial", "GET /healthz", "GET /metrics")
}

func (w *Worker) handleAssign(rw http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		http.Error(rw, fmt.Sprintf("read body: %v", err), http.StatusBadRequest)
		return
	}
	var a Assignment
	if err := openWire(body, SchemaAssignment, &a); err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	if a.Partition.ID == "" || a.Lease == "" {
		http.Error(rw, "assignment missing partition id or lease", http.StatusBadRequest)
		return
	}
	w.mu.Lock()
	wp := w.parts[a.Partition.ID]
	switch {
	case wp == nil:
		wp = &workerPartition{part: a.Partition, lease: a.Lease, trace: a.Trace, state: StateRunning}
		w.parts[a.Partition.ID] = wp
		go w.runPartition(wp)
	case wp.state == StateFailed:
		// Reassignment after a reported failure: restart under the new lease
		// (and the new run's trace — the retry's spans belong to it).
		wp.lease, wp.trace, wp.state, wp.errMsg = a.Lease, a.Trace, StateRunning, ""
		go w.runPartition(wp)
	default:
		// Running or done: adopt the new fencing token; completed state is
		// re-served under it (the result is deterministic, so re-running
		// would produce the same bytes anyway).
		wp.lease = a.Lease
	}
	w.mu.Unlock()
	w.logf("worker %s: assigned %s lease %s", w.cfg.Name, a.Partition.ID, a.Lease)
	rw.WriteHeader(http.StatusNoContent)
}

func (w *Worker) handleStatus(rw http.ResponseWriter, _ *http.Request) {
	w.mu.Lock()
	st := StatusResponse{Worker: w.cfg.Name}
	for _, wp := range w.parts {
		st.Partitions = append(st.Partitions, PartitionStatus{
			ID:           wp.part.ID,
			Lease:        wp.lease,
			State:        wp.state,
			Error:        wp.errMsg,
			Observations: wp.obsN,
		})
	}
	w.mu.Unlock()
	sort.Slice(st.Partitions, func(i, j int) bool { return st.Partitions[i].ID < st.Partitions[j].ID })
	w.writeSealed(rw, SchemaStatus, st)
}

func (w *Worker) handlePartial(rw http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("partition")
	if id == "" {
		http.Error(rw, "missing parameter \"partition\"", http.StatusBadRequest)
		return
	}
	w.mu.Lock()
	wp := w.parts[id]
	var resp PartialResponse
	ready := wp != nil && wp.state == StateDone
	if ready {
		resp = PartialResponse{
			ID:           wp.part.ID,
			Lease:        wp.lease,
			Observations: wp.obsN,
			State:        wp.encoded,
			Inputs:       append([]obs.InputDigest(nil), wp.inputs...),
			Trace:        wp.trace,
			Spans:        append([]obs.SpanSnapshot(nil), wp.spans...),
		}
	}
	w.mu.Unlock()
	if !ready {
		http.Error(rw, fmt.Sprintf("partition %q has no completed state", id), http.StatusNotFound)
		return
	}
	resp.Metrics = w.reg.Snapshot()
	w.writeSealed(rw, SchemaPartial, resp)
}

func (w *Worker) writeSealed(rw http.ResponseWriter, schema string, v any) {
	data, err := sealWire(schema, v)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusInternalServerError)
		return
	}
	rw.Header().Set("Content-Type", "application/json")
	rw.Write(data)
}

// runPartition ingests one partition end to end: stream the Zeek join
// through the shard pool, encode the accumulator, retain only the bytes.
func (w *Worker) runPartition(wp *workerPartition) {
	obsN, encoded, inputs, spans, err := w.ingest(wp.part)
	w.mu.Lock()
	if err != nil {
		wp.state, wp.errMsg = StateFailed, err.Error()
	} else {
		wp.state, wp.obsN, wp.encoded, wp.inputs, wp.spans = StateDone, obsN, encoded, inputs, spans
	}
	w.mu.Unlock()
	if err != nil {
		w.metrics.partitions.With(StateFailed).Inc()
		w.logf("worker %s: partition %s failed: %v", w.cfg.Name, wp.part.ID, err)
		return
	}
	w.metrics.partitions.With(StateDone).Inc()
	w.metrics.observations.Add(float64(obsN))
	w.metrics.stateBytes.Add(float64(len(encoded)))
	w.logf("worker %s: partition %s done (%d observations, %d state bytes)",
		w.cfg.Name, wp.part.ID, obsN, len(encoded))
}

func (w *Worker) ingest(part Partition) (int64, []byte, []obs.InputDigest, []obs.SpanSnapshot, error) {
	// Each partition records into its own tracer: its span set ships
	// upstream by itself, and concurrent partitions never interleave spans.
	tracer := obs.NewTracer()
	acc, inputs, err := ingestPartition(w.ctx, w.cfg.Pipeline, w.fs, w.cfg.Format,
		w.cfg.Goroutines, w.cfg.Throttle, part, tracer)
	if err != nil {
		return 0, nil, nil, nil, err
	}
	esp := tracer.Start("dist-encode", "encode/"+part.ID).SetTID(part.Index)
	encoded, err := acc.EncodeState()
	esp.SetRecords(int64(len(encoded)))
	esp.End()
	if err != nil {
		return 0, nil, nil, nil, fmt.Errorf("dist: encode partition %s: %w", part.ID, err)
	}
	return acc.Observations(), encoded, inputs, tracer.Snapshot(), nil
}
