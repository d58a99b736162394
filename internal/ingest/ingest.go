// Package ingest is the streaming counterpart of the batch pipeline: a
// long-running daemon core that tails live Zeek ssl.log / x509.log files,
// joins the two streams incrementally, re-aggregates joined connections into
// per-window observations, and folds closed windows into a
// analysis.WindowRing for on-demand "last hour / last day / all time"
// reports.
//
// Determinism carries through from the layers below: the tailers surface the
// files' contents regardless of poll timing, the incremental joiner emits
// connections in ssl.log order independent of how polls interleave the two
// files, windows are keyed by log time (never wall time), and the ring's
// merge contract makes fold partitioning invisible. With a window wider than
// the capture, the daemon's final report is byte-identical to the batch
// pipeline over the same files — the equivalence suite enforces this,
// including across snapshot/restore restarts.
//
// This package is the one place in the repository allowed to consult the
// wall clock (snapshot age, poll pacing); everything it feeds downstream is
// keyed by log time.
package ingest

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"certchains/internal/analysis"
	"certchains/internal/certmodel"
	"certchains/internal/obs"
	"certchains/internal/resilience"
	"certchains/internal/zeek"
)

// Config wires an Ingestor to its log files and sizes its state.
type Config struct {
	// SSLPath and X509Path are the live Zeek logs to tail.
	SSLPath, X509Path string
	// JSON selects ND-JSON logs instead of TSV.
	JSON bool
	// Window sizes the analysis ring (interval, live depth, fold workers).
	Window analysis.WindowConfig
	// CertCap / PendingCap bound the incremental joiner (0 = defaults,
	// negative = unbounded).
	CertCap, PendingCap int
	// SnapshotPath, when set, is where SnapshotToFile persists state.
	SnapshotPath string
	// FS is the filesystem the tailers read through (nil = the real one);
	// chaos tests layer a fault plan here.
	FS resilience.FS
	// Faults, when set, injects faults into the snapshot writer.
	Faults *resilience.Plan
	// Retry is the snapshot-write retry budget; the zero value writes once.
	Retry resilience.Policy
	// AccessLog, when set, receives one record per admin-surface request
	// (route, method, code, bytes). Latency lives in the registry's
	// histograms, not the log line.
	AccessLog *slog.Logger
}

// Ingestor owns the tail → join → aggregate → ring chain. All methods are
// safe for concurrent use. Two locks, always taken in the order mu → ringMu:
// mu guards the whole chain, and ringMu guards the ring alone. A fold, the
// ring's only writer, holds both; a report build holds only ringMu's read
// lock (report.go), so tail → join → aggregate never waits for a reader, and
// a poll waits only when it has a window to fold while a build runs.
type Ingestor struct {
	mu     sync.Mutex
	ringMu sync.RWMutex
	cfg    Config
	p      *analysis.Pipeline

	// strs interns the field values both row decoders produce; bounded, like
	// the joiner's caches, because the daemon runs for months. A cache: a
	// restart starts it over. The decoders' stream state rides the tailers'
	// TailState.
	strs     *certmodel.Interner
	sslDec   *zeek.RowDecoder
	x509Dec  *zeek.RowDecoder
	sslTail  *zeek.Tailer
	x509Tail *zeek.Tailer
	joiner   *zeek.IncrementalJoiner
	agg      *aggregator
	ring     *analysis.WindowRing

	// wm is the join watermark: the largest connection timestamp emitted.
	// Windows whose end it has passed are complete and fold into the ring.
	wm    time.Time
	wmSet bool

	// version counts PollOnce and Finish calls: the ingest state a report
	// reads is a function of it. It keys the report flights, so it is
	// process-local: a restart starts over with no flights.
	version uint64
	// flights are the report builds in progress, keyed by (version, window
	// span); buildSlots bounds how many run at once (report.go).
	flights    map[flightKey]*reportFlight
	buildSlots chan struct{}
	// reportBuilds counts report builds; reportShared counts Report calls
	// that joined a build already in flight instead. Both are
	// process-lifetime, like the caches' counters.
	reportBuilds int64
	reportShared int64

	// recordErrs counts records the tailers decoded but the join layer
	// rejected (bad field values); the daemon outlives them.
	recordErrs int64
	// foldedWindows counts windows folded into the ring.
	foldedWindows int64

	snapshots    int64
	lastSnapshot time.Time
	startedAt    time.Time

	// reg is the shared metrics registry behind /metrics and /healthz,
	// refreshed from a Stats snapshot on every scrape.
	reg *obs.Registry
	// resMetrics books retry and injected-fault counters into reg.
	resMetrics *resilience.Metrics
}

// internCap bounds the daemon's string interner: past it the interner starts
// a fresh table, so a year of distinct client addresses, SNIs and certificate
// ids cannot accumulate.
const internCap = 1 << 18

// New creates an Ingestor over fresh state.
func New(p *analysis.Pipeline, cfg Config) *Ingestor {
	ring := analysis.NewWindowRing(p, cfg.Window)
	cfg.Window = ring.Config()
	ing := &Ingestor{
		cfg:       cfg,
		p:         p,
		ring:      ring,
		agg:       newAggregator(cfg.Window.Interval),
		startedAt: time.Now(),
		reg:       obs.NewRegistry(),
	}
	ing.wire()
	return ing
}

// wire builds the metrics plumbing, the report flights and the tail →
// decode → join chain of a fresh or about-to-be-restored Ingestor.
func (ing *Ingestor) wire() {
	cfg := ing.cfg
	ing.flights = make(map[flightKey]*reportFlight)
	ing.buildSlots = make(chan struct{}, runtime.GOMAXPROCS(0))
	obs.RegisterBuildInfo(ing.reg, "certchain-ingestd")
	ing.resMetrics = resilience.NewMetrics(ing.reg)
	cfg.Faults.SetMetrics(ing.resMetrics)
	ing.joiner = zeek.NewIncrementalJoiner(cfg.CertCap, cfg.PendingCap, ing.observeConn)
	ing.joiner.SetTracer(ing.p.Tracer)
	ing.strs = &certmodel.Interner{Max: internCap}
	ing.sslDec = zeek.NewRowDecoder(cfg.JSON, ing.strs)
	ing.x509Dec = zeek.NewRowDecoder(cfg.JSON, ing.strs)
	ing.sslTail = zeek.NewSSLTailerFS(cfg.SSLPath, ing.sslDec, ing.feedSSL, cfg.FS)
	ing.x509Tail = zeek.NewX509TailerFS(cfg.X509Path, ing.x509Dec, ing.feedX509, cfg.FS)
}

// observeConn is the joiner's emit callback (called under ing.mu). c is the
// joiner's pooled connection; nothing here keeps it.
func (ing *Ingestor) observeConn(c *zeek.Connection) error {
	ing.agg.add(c)
	if !ing.wmSet || c.SSL.TS.After(ing.wm) {
		ing.wm, ing.wmSet = c.SSL.TS, true
	}
	return nil
}

// PollOnce reads everything appended to both logs since the last poll,
// advances the join, and folds any windows the watermark has completed.
// Certificates are polled first so the watermark is as fresh as possible
// when connections drain.
func (ing *Ingestor) PollOnce() error {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	// Everything below runs under mu, so bumping first is the same to a
	// report as bumping last — and it counts a poll that fails part way.
	ing.version++
	if err := ing.x509Tail.PollRows(); err != nil {
		return err
	}
	if err := ing.sslTail.PollRows(); err != nil {
		return err
	}
	ing.foldReady(false)
	return nil
}

// feedX509 / feedSSL are the tailers' row callbacks: they push each decoded
// row into the joiner, absorbing record-level failures — a line that decodes
// but is no valid record (err set), or one the join layer rejects — because a
// daemon must outlive one bad row.
func (ing *Ingestor) feedX509(r *zeek.X509Row, err error) error {
	if err != nil || ing.joiner.AddX509Row(r) != nil {
		ing.recordErrs++
	}
	return nil
}

func (ing *Ingestor) feedSSL(r *zeek.SSLRecord, err error) error {
	if err != nil || ing.joiner.AddSSL(r) != nil {
		ing.recordErrs++
	}
	return nil
}

// Finish declares both streams complete: dangling partial lines are flushed,
// every held connection drains against the final certificate index, and all
// open windows fold. Used at daemon shutdown when the capture has ended (the
// logs carried #close) and by the equivalence tests; a daemon that will
// resume later snapshots instead.
func (ing *Ingestor) Finish() error {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	ing.version++
	if err := ing.x509Tail.FinishRows(); err != nil {
		return err
	}
	if err := ing.sslTail.FinishRows(); err != nil {
		return err
	}
	if err := ing.joiner.Finish(); err != nil {
		return err
	}
	ing.foldReady(true)
	return nil
}

// foldReady folds completed windows (all when force) into the ring, in
// window order, preserving first-seen observation order within each window —
// the same order the batch loader emits. Called under mu; the fold is the
// ring's only change, so it alone takes ringMu for writing.
func (ing *Ingestor) foldReady(force bool) {
	obs, n := ing.agg.closeReady(ing.wm, ing.wmSet, force)
	if n > 0 {
		ing.ringMu.Lock()
		ing.ring.ObserveBatch(obs)
		ing.ringMu.Unlock()
		ing.foldedWindows += int64(n)
	}
}

// Closed reports whether both tailed streams have announced their end.
func (ing *Ingestor) Closed() bool {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	return ing.sslTail.Closed() && ing.x509Tail.Closed()
}

// SnapshotSchema and SnapshotVersion stamp the daemon's persisted state
// file. Restore refuses anything else with a typed *certmodel.SchemaError:
// before the envelope, a daemon restarted against a snapshot from a
// different codec revision would silently decode whatever fields still
// lined up and drop the rest.
const (
	SnapshotSchema  = "certchains/ingest-state"
	SnapshotVersion = 1
)

// snapshotFile is the daemon's full persisted state.
type snapshotFile struct {
	SSLTail   zeek.TailState               `json:"ssl_tail"`
	X509Tail  zeek.TailState               `json:"x509_tail"`
	Joiner    *zeek.JoinerState            `json:"joiner"`
	Agg       *aggSnapshot                 `json:"agg"`
	Ring      *analysis.WindowRingSnapshot `json:"ring"`
	WM        certmodel.TimeSnapshot       `json:"wm"`
	WMSet     bool                         `json:"wm_set,omitempty"`
	RecErrs   int64                        `json:"record_errs,omitempty"`
	Folded    int64                        `json:"folded_windows,omitempty"`
	SavedUnix int64                        `json:"saved_unix,omitempty"`
}

// Snapshot serializes the complete ingest state: tail positions, join
// buffer, open aggregates, and the analysis ring. The state is captured at a
// line boundary (tailer offsets never point mid-record), so a restored
// daemon resumes exactly where this one stopped without re-reading history.
func (ing *Ingestor) Snapshot() ([]byte, error) {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	s := &snapshotFile{
		SSLTail:   ing.sslTail.State(),
		X509Tail:  ing.x509Tail.State(),
		Joiner:    ing.joiner.State(),
		Agg:       ing.agg.snapshot(),
		Ring:      ing.ring.Snapshot(),
		WMSet:     ing.wmSet,
		RecErrs:   ing.recordErrs,
		Folded:    ing.foldedWindows,
		SavedUnix: time.Now().Unix(),
	}
	if ing.wmSet {
		s.WM = certmodel.SnapTime(ing.wm)
	}
	return certmodel.Seal(SnapshotSchema, SnapshotVersion, s)
}

// SnapshotToFile writes the snapshot atomically (temp file + rename) to
// cfg.SnapshotPath, retrying transient write failures within cfg.Retry's
// budget. The atomicity means a failed attempt leaves no partial snapshot:
// each retry starts a fresh temp file and the rename only happens after a
// complete write.
func (ing *Ingestor) SnapshotToFile() error {
	if ing.cfg.SnapshotPath == "" {
		return fmt.Errorf("ingest: no snapshot path configured")
	}
	data, err := ing.Snapshot()
	if err != nil {
		return err
	}
	if _, err := ing.cfg.Retry.WithMetrics(ing.resMetrics).Do(context.Background(), "ingest.snapshot",
		func(context.Context) error { return ing.writeSnapshot(data) }); err != nil {
		return err
	}
	ing.mu.Lock()
	ing.snapshots++
	ing.lastSnapshot = time.Now()
	ing.mu.Unlock()
	return nil
}

// writeSnapshot is one atomic write attempt; cfg.Faults can fail the data
// write mid-file (the temp file is discarded, so the fault never reaches
// the real snapshot).
func (ing *Ingestor) writeSnapshot(data []byte) error {
	dir := filepath.Dir(ing.cfg.SnapshotPath)
	tmp, err := os.CreateTemp(dir, ".snapshot-*")
	if err != nil {
		return err
	}
	var w io.Writer = tmp
	w = ing.cfg.Faults.Writer("ingest.snapshot.write", w)
	if _, err := w.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), ing.cfg.SnapshotPath); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// Restore rebuilds an Ingestor from Snapshot output. A snapshot written by
// a different codec revision (or with no envelope at all) is rejected with
// a *certmodel.SchemaError rather than part-decoded.
func Restore(p *analysis.Pipeline, cfg Config, data []byte) (*Ingestor, error) {
	payload, err := certmodel.Open(data, SnapshotSchema, SnapshotVersion)
	if err != nil {
		return nil, fmt.Errorf("ingest: snapshot: %w", err)
	}
	var s snapshotFile
	if err := json.Unmarshal(payload, &s); err != nil {
		return nil, fmt.Errorf("ingest: decode snapshot: %w", err)
	}
	ring, err := analysis.RestoreWindowRing(p, cfg.Window, s.Ring)
	if err != nil {
		return nil, err
	}
	cfg.Window = ring.Config()
	agg, err := restoreAggregator(cfg.Window.Interval, s.Agg)
	if err != nil {
		return nil, err
	}
	ing := &Ingestor{
		cfg:           cfg,
		p:             p,
		ring:          ring,
		agg:           agg,
		recordErrs:    s.RecErrs,
		foldedWindows: s.Folded,
		startedAt:     time.Now(),
		reg:           obs.NewRegistry(),
	}
	ing.wire()
	if s.WMSet {
		ing.wm, ing.wmSet = s.WM.Time(), true
	}
	if err := ing.joiner.RestoreState(s.Joiner); err != nil {
		return nil, err
	}
	ing.sslTail.Restore(s.SSLTail)
	ing.x509Tail.Restore(s.X509Tail)
	return ing, nil
}

// RestoreOrNew restores from cfg.SnapshotPath when the file exists, else
// starts fresh.
func RestoreOrNew(p *analysis.Pipeline, cfg Config) (*Ingestor, bool, error) {
	if cfg.SnapshotPath != "" {
		if data, err := os.ReadFile(cfg.SnapshotPath); err == nil {
			ing, err := Restore(p, cfg, data)
			if err != nil {
				return nil, false, err
			}
			return ing, true, nil
		}
	}
	return New(p, cfg), false, nil
}

// Close releases the tailers' file handles.
func (ing *Ingestor) Close() error {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	err := ing.sslTail.Close()
	if err2 := ing.x509Tail.Close(); err == nil {
		err = err2
	}
	return err
}
