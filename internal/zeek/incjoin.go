//certchain:hotpath — the incremental joiner runs once per row the daemon ingests.

package zeek

import (
	"fmt"
	"strconv"
	"time"

	"certchains/internal/certmodel"
	"certchains/internal/dn"
	"certchains/internal/obs"
)

// IncrementalJoiner joins the two live log streams — ssl.log connections and
// x509.log certificates — as records arrive, without reading either file to
// the end first (FastJoin cannot start until x509.log is complete).
//
// Determinism is the design constraint: the daemon's analysis must not depend
// on how poll cycles interleave the two files. The joiner therefore emits
// connections strictly in ssl.log record order, and a connection is released
// only once the x509 watermark — the largest certificate timestamp consumed
// so far — has passed the connection's own timestamp. Zeek logs a chain's
// certificates at the moment of the handshake, so once the x509 stream has
// moved beyond time t, every certificate belonging to a connection at time t
// has either been seen or will never arrive. Both the emission order and the
// drop/emit decision for every connection are thus functions of the two
// files' contents alone, never of poll timing.
//
// Connections whose chain references a certificate that has not arrived by
// drain time are dropped and counted as orphans — the streaming analogue of
// the per-row join errors the batch loader tolerates across x509 rotation
// gaps.
//
// Allocation economy follows FastJoin, with the same retention contract: rows
// fed to AddSSL / AddX509Row are pooled by the caller and only read during the
// call (AddSSL copies the row into the hold queue); the *Connection handed to
// emit, its SSL record and that record's CertChainFUIDs are the joiner's own
// pooled storage, valid until emit returns — field strings and the Chain may
// be retained, the Chain being the canonical shared value for its
// certificate sequence (read-only, like the *Meta values it holds). emit must
// not feed the joiner.
type IncrementalJoiner struct {
	emit func(*Connection) error
	conn Connection // the pooled value emit receives

	// certs indexes certificates by file-unique id; fifo remembers insertion
	// order so the index can be bounded (satellite: orphaned fuids must not
	// leak memory — without a cap, every certificate ever logged would stay
	// resident for the daemon's lifetime).
	certs   map[string]*certmodel.Meta
	fifo    ring[string]
	certCap int
	dns     dn.Interner

	// chains caches the resolved Chain per fuid sequence. An entry is good
	// while the index has not evicted since it was resolved: certificates
	// only ever leave the index by eviction, so until evictGen moves, a
	// lookup would find the very same Metas — which keeps Orphans identical
	// to resolving every connection against the index, at any certCap.
	chains      map[string]cachedChain
	evictGen    int64
	keyBuf      []byte
	chainHits   int64
	chainMisses int64

	// pending is the FIFO hold queue of ssl records waiting for the x509
	// watermark. pendingCap is a pathology valve: a stream that stops
	// advancing the watermark (e.g. x509.log goes silent while ssl.log keeps
	// growing) would otherwise hold connections forever.
	pending    ring[heldSSL]
	pendingCap int

	wm       time.Time
	wmSet    bool
	finished bool

	stats  JoinerStats
	tracer *obs.Tracer
}

// ring is a growable FIFO over one backing array. Popping moves an index
// instead of reslicing the head away — after q = q[1:], the slice has slid off
// the front of its array and every append reallocates.
type ring[T any] struct {
	buf     []T
	head, n int
}

// push appends a slot and returns it, still holding what an earlier lap left
// there so the caller can reuse its storage. The pointer is good until the
// next push.
func (q *ring[T]) push() *T {
	if q.n == len(q.buf) {
		grown := make([]T, max(16, 2*len(q.buf)))
		for i := range q.n {
			grown[i] = *q.at(i)
		}
		q.buf, q.head = grown, 0
	}
	q.n++
	return q.at(q.n - 1)
}

// at returns the i-th element from the front.
func (q *ring[T]) at(i int) *T {
	i += q.head
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	return &q.buf[i]
}

// pop drops the front element; its slot keeps its contents until a later
// push reuses it.
func (q *ring[T]) pop() {
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
}

// heldSSL is one hold-queue slot: the record by value, and the backing array
// its CertChainFUIDs reuse from lap to lap.
type heldSSL struct {
	rec   SSLRecord
	fuids []string
}

// cachedChain is a resolved chain and the eviction generation it was
// resolved in.
type cachedChain struct {
	ch  certmodel.Chain
	gen int64
}

// JoinerStats are the joiner's observable counters, all monotone.
type JoinerStats struct {
	SSLRecords  int64 `json:"ssl_records"`
	X509Records int64 `json:"x509_records"`
	Joined      int64 `json:"joined"`
	// Orphans counts connections dropped because a referenced certificate
	// never arrived before their drain point.
	Orphans int64 `json:"orphans,omitempty"`
	// Evictions counts certificates dropped from the bounded index.
	Evictions int64 `json:"evictions,omitempty"`
	// DupCerts counts re-logged certificate ids (first record wins, as in the
	// batch index).
	DupCerts int64 `json:"dup_certs,omitempty"`
	// Forced counts connections drained early by the pending-queue cap; any
	// nonzero value means the watermark guarantee was overridden.
	Forced int64 `json:"forced,omitempty"`
}

// JoinerState is the joiner's full serializable state for daemon snapshots.
type JoinerState struct {
	WM      certmodel.TimeSnapshot   `json:"wm"`
	WMSet   bool                     `json:"wm_set,omitempty"`
	Certs   []certmodel.MetaSnapshot `json:"certs,omitempty"` // insertion order
	Pending []*SSLRecord             `json:"pending,omitempty"`
	Stats   JoinerStats              `json:"stats"`
}

// DefaultCertCap bounds the certificate index. Campus traffic re-references
// the same certificates heavily, so a six-figure cap holds the working set
// with room to spare while keeping worst-case memory flat.
const DefaultCertCap = 1 << 18

// DefaultPendingCap bounds the hold queue of not-yet-drained connections.
const DefaultPendingCap = 1 << 16

// The joiner's caches are optimizations, so each is bounded by starting over
// at a fixed size rather than by tracking use: the chain cache at
// chainCacheCap sequences, the DN parse memo at dnInternCap distinct strings.
const (
	chainCacheCap = 1 << 16
	dnInternCap   = 1 << 16
)

// NewIncrementalJoiner creates a joiner emitting joined connections through
// emit. certCap / pendingCap of 0 select the defaults; negative values mean
// unbounded.
func NewIncrementalJoiner(certCap, pendingCap int, emit func(*Connection) error) *IncrementalJoiner {
	if certCap == 0 {
		certCap = DefaultCertCap
	}
	if pendingCap == 0 {
		pendingCap = DefaultPendingCap
	}
	return &IncrementalJoiner{
		emit:       emit,
		certs:      make(map[string]*certmodel.Meta),
		certCap:    certCap,
		dns:        dn.Interner{Max: dnInternCap},
		chains:     make(map[string]cachedChain),
		pendingCap: pendingCap,
	}
}

// AddSSL feeds the next ssl.log record (in file order). The record is copied
// into the hold queue: r and its CertChainFUIDs are not retained.
func (j *IncrementalJoiner) AddSSL(r *SSLRecord) error {
	j.stats.SSLRecords++
	j.hold(r)
	return j.drain()
}

func (j *IncrementalJoiner) hold(r *SSLRecord) {
	h := j.pending.push()
	h.rec = *r
	if len(r.CertChainFUIDs) > 0 {
		h.fuids = append(h.fuids[:0], r.CertChainFUIDs...)
		h.rec.CertChainFUIDs = h.fuids
	}
}

// AddX509 feeds the next x509.log record (in file order) in its typed-record
// form.
func (j *IncrementalJoiner) AddX509(r *X509Record) error {
	var row X509Row
	row.fromRecord(r)
	return j.AddX509Row(&row)
}

// AddX509Row feeds the next x509.log row (in file order). Zeek writes
// x509.log in timestamp order, so each row advances the watermark
// monotonically; an out-of-order row only delays draining, never breaks
// correctness. The row is only read during the call.
func (j *IncrementalJoiner) AddX509Row(r *X509Row) error {
	j.stats.X509Records++
	if _, dup := j.certs[string(r.id)]; dup {
		j.stats.DupCerts++
	} else {
		m, err := r.meta(&j.dns)
		if err != nil {
			return err
		}
		j.index(m)
	}
	if !j.wmSet || r.ts.After(j.wm) {
		j.wm = r.ts
		j.wmSet = true
	}
	return j.drain()
}

// index adds a certificate, evicting the oldest past the cap.
func (j *IncrementalJoiner) index(m *certmodel.Meta) {
	j.certs[string(m.FP)] = m
	*j.fifo.push() = string(m.FP)
	if j.certCap > 0 && j.fifo.n > j.certCap {
		delete(j.certs, *j.fifo.at(0))
		j.fifo.pop()
		j.stats.Evictions++
		j.evictGen++
	}
}

// appendFUIDKey appends the chain-cache key of a fuid sequence:
// length-prefixed, so no two sequences share a key.
func appendFUIDKey(dst []byte, fuids []string) []byte {
	for _, f := range fuids {
		dst = strconv.AppendInt(dst, int64(len(f)), 10)
		dst = append(dst, ':')
		dst = append(dst, f...)
	}
	return dst
}

// chainFor resolves a fuid sequence against the index through the chain
// cache; false means a certificate is missing.
func (j *IncrementalJoiner) chainFor(fuids []string) (certmodel.Chain, bool) {
	if len(fuids) == 0 {
		return nil, true
	}
	j.keyBuf = appendFUIDKey(j.keyBuf[:0], fuids)
	if c, ok := j.chains[string(j.keyBuf)]; ok && c.gen == j.evictGen {
		j.chainHits++
		return c.ch, true
	}
	j.chainMisses++
	ch := make(certmodel.Chain, 0, len(fuids))
	for _, fuid := range fuids {
		m, ok := j.certs[fuid]
		if !ok {
			return nil, false
		}
		ch = append(ch, m)
	}
	if len(j.chains) >= chainCacheCap {
		j.chains = make(map[string]cachedChain) //certchain:coldpath one table per chainCacheCap misses
	}
	j.chains[string(j.keyBuf)] = cachedChain{ch, j.evictGen}
	return ch, true
}

// AddSSLRecord parses and feeds a generic ssl.log record.
func (j *IncrementalJoiner) AddSSLRecord(rec Record) error {
	r, err := ParseSSLRecord(rec)
	if err != nil {
		return err
	}
	return j.AddSSL(r)
}

// AddX509Record parses and feeds a generic x509.log record.
func (j *IncrementalJoiner) AddX509Record(rec Record) error {
	r, err := ParseX509Record(rec)
	if err != nil {
		return err
	}
	return j.AddX509(r)
}

// JoinerCacheStats sizes the joiner's caches and counts the chain cache's
// traffic. Process-lifetime diagnostics: not part of JoinerState.
type JoinerCacheStats struct {
	ChainEntries int
	ChainHits    int64
	ChainMisses  int64
	DNEntries    int
}

// CacheStats returns the cache diagnostics.
func (j *IncrementalJoiner) CacheStats() JoinerCacheStats {
	return JoinerCacheStats{
		ChainEntries: len(j.chains),
		ChainHits:    j.chainHits,
		ChainMisses:  j.chainMisses,
		DNEntries:    j.dns.Len(),
	}
}

// SetTracer attaches a stage tracer; Finish then records a "join-finish"
// span covering the final drain. A nil tracer is the no-op default.
func (j *IncrementalJoiner) SetTracer(t *obs.Tracer) { j.tracer = t }

// Finish declares both streams complete (both files carried #close, or the
// daemon is shutting down) and drains every held connection against the
// final certificate index.
func (j *IncrementalJoiner) Finish() error {
	sp := j.tracer.Start("join-finish", "join/finish").
		SetRecords(int64(j.pending.n)).
		Arg("cert_index", int64(len(j.certs)))
	defer sp.End()
	j.finished = true
	return j.drain()
}

// drain releases the front of the hold queue while the watermark (or stream
// completion, or the capacity valve) allows.
func (j *IncrementalJoiner) drain() error {
	for j.pending.n > 0 {
		forced := j.pendingCap > 0 && j.pending.n > j.pendingCap
		r := &j.pending.at(0).rec
		if !j.finished && !forced && !(j.wmSet && r.TS.Before(j.wm)) {
			return nil
		}
		j.pending.pop() // r stays intact until the next hold, which is after emit
		if forced {
			j.stats.Forced++
		}
		chain, complete := j.chainFor(r.CertChainFUIDs)
		if !complete {
			j.stats.Orphans++
			continue
		}
		j.stats.Joined++
		j.conn = Connection{SSL: r, Chain: chain}
		if err := j.emit(&j.conn); err != nil {
			return err
		}
	}
	return nil
}

// PendingDepth is the current hold-queue length.
func (j *IncrementalJoiner) PendingDepth() int { return j.pending.n }

// CertIndexSize is the current certificate-index size.
func (j *IncrementalJoiner) CertIndexSize() int { return len(j.certs) }

// Stats returns the counters.
func (j *IncrementalJoiner) Stats() JoinerStats { return j.stats }

// State serializes the joiner for a daemon snapshot.
func (j *IncrementalJoiner) State() *JoinerState {
	s := &JoinerState{
		WM:    certmodel.SnapTime(j.wm),
		WMSet: j.wmSet,
		Stats: j.stats,
	}
	for i := range j.fifo.n {
		s.Certs = append(s.Certs, j.certs[*j.fifo.at(i)].Snapshot())
	}
	for i := range j.pending.n {
		r := j.pending.at(i).rec // a copy: the slot and its fuid array are reused
		r.CertChainFUIDs = append([]string(nil), r.CertChainFUIDs...)
		s.Pending = append(s.Pending, &r)
	}
	return s
}

// RestoreState reinstates a snapshotted joiner. Must be called on a fresh
// joiner before any records are fed. Certificates are re-indexed oldest
// first, so a joiner built with a smaller cap than the snapshot's evicts the
// oldest down to its cap, counted in Stats().Evictions.
func (j *IncrementalJoiner) RestoreState(s *JoinerState) error {
	if s == nil {
		return nil
	}
	if j.fifo.n > 0 || j.pending.n > 0 {
		return fmt.Errorf("zeek: joiner restore on a non-empty joiner") //certchain:coldpath caller-bug error path
	}
	if s.WMSet {
		j.wm, j.wmSet = s.WM.Time(), true
	}
	j.stats = s.Stats
	for _, ms := range s.Certs {
		j.index(ms.Meta())
	}
	for _, r := range s.Pending {
		j.hold(r)
	}
	return nil
}
