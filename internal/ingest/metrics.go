package ingest

import (
	"sort"
	"time"

	"certchains/internal/analysis"
	"certchains/internal/chain"
	"certchains/internal/obs"
	"certchains/internal/zeek"
)

// TailStats is one tailer's observable state.
type TailStats struct {
	Offset    int64 `json:"offset"`
	LagBytes  int64 `json:"lag_bytes"`
	Rotations int64 `json:"rotations"`
	ParseErrs int64 `json:"parse_errs"`
	Closed    bool  `json:"closed"`
}

// Stats is a consistent point-in-time view of the whole ingest chain, taken
// under one lock acquisition — the source for /metrics and /healthz.
type Stats struct {
	Observations  int                                       `json:"observations"`
	TLS13Conns    int64                                     `json:"tls13_conns"`
	VisibleConns  int64                                     `json:"visible_conns"`
	Categories    map[chain.Category]analysis.CategoryStats `json:"-"`
	Joiner        zeek.JoinerStats                          `json:"joiner"`
	JoinPending   int                                       `json:"join_pending"`
	CertIndex     int                                       `json:"cert_index"`
	SSLTail       TailStats                                 `json:"ssl_tail"`
	X509Tail      TailStats                                 `json:"x509_tail"`
	OpenAggs      int                                       `json:"open_aggregates"`
	LiveBuckets   int                                       `json:"live_buckets"`
	FoldedWindows int64                                     `json:"folded_windows"`
	LateConns     int64                                     `json:"late_conns"`
	RecordErrs    int64                                     `json:"record_errs"`
	// Snapshots counts snapshot writes, SnapshotAge is seconds since the
	// last one (-1 before the first), and Uptime is seconds since the
	// Ingestor was built. All process-lifetime: a restart starts them over.
	Snapshots   int64   `json:"snapshots"`
	SnapshotAge float64 `json:"snapshot_age_seconds"`
	Uptime      float64 `json:"uptime_seconds"`
	Closed      bool    `json:"closed"`
	Watermark   string  `json:"watermark,omitempty"`

	// InternStrings / InternDNs size the two bounded interners (field values,
	// parsed DNs); ChainCache sizes and scores the joiner's resolved-chain
	// cache. All process-lifetime: a restart starts them over.
	InternStrings    int   `json:"intern_strings"`
	InternDNs        int   `json:"intern_dns"`
	ChainCache       int   `json:"chain_cache"`
	ChainCacheHits   int64 `json:"chain_cache_hits"`
	ChainCacheMisses int64 `json:"chain_cache_misses"`
	// Format is the log format being decoded ("tsv" or "json");
	// DecodeFallbacks counts, per zeek.FallbackReasons entry, the ND-JSON
	// lines of either log that left the fast tokenizer for the legacy parser.
	// Process-lifetime, like the decoders that count them.
	Format          string           `json:"format,omitempty"`
	DecodeFallbacks map[string]int64 `json:"decode_fallbacks,omitempty"`

	// ReportBuilds counts report builds; ReportShared counts Report calls
	// that joined a build already in flight for the same state and window
	// span instead of building their own. Process-lifetime.
	ReportBuilds int64 `json:"report_builds"`
	ReportShared int64 `json:"report_shared"`
}

func tailStats(t *zeek.Tailer) TailStats {
	return TailStats{
		Offset:    t.Offset(),
		LagBytes:  t.LagBytes(),
		Rotations: t.Rotations(),
		ParseErrs: t.ParseErrors(),
		Closed:    t.Closed(),
	}
}

// Stats captures the current counters.
func (ing *Ingestor) Stats() Stats {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	tls13, visible := ing.ring.ConnTotals()
	cache := ing.joiner.CacheStats()
	format := "tsv"
	if ing.cfg.JSON {
		format = "json"
	}
	fallbacks := make(map[string]int64, len(zeek.FallbackReasons))
	sslFB, x509FB := ing.sslDec.Fallbacks(), ing.x509Dec.Fallbacks()
	for i, reason := range zeek.FallbackReasons {
		fallbacks[reason] = sslFB[i] + x509FB[i]
	}
	s := Stats{
		Observations:  ing.ring.Seq(),
		TLS13Conns:    tls13,
		VisibleConns:  visible,
		Categories:    ing.ring.CategoryTotals(),
		Joiner:        ing.joiner.Stats(),
		JoinPending:   ing.joiner.PendingDepth(),
		CertIndex:     ing.joiner.CertIndexSize(),
		SSLTail:       tailStats(ing.sslTail),
		X509Tail:      tailStats(ing.x509Tail),
		OpenAggs:      ing.agg.openCount(),
		LiveBuckets:   ing.ring.LiveBuckets(),
		FoldedWindows: ing.foldedWindows,
		LateConns:     ing.agg.lateConns,
		RecordErrs:    ing.recordErrs,
		Snapshots:     ing.snapshots,
		SnapshotAge:   -1,
		Uptime:        time.Since(ing.startedAt).Seconds(),
		Closed:        ing.sslTail.Closed() && ing.x509Tail.Closed(),

		InternStrings:    ing.strs.Len(),
		InternDNs:        cache.DNEntries,
		ChainCache:       cache.ChainEntries,
		ChainCacheHits:   cache.ChainHits,
		ChainCacheMisses: cache.ChainMisses,
		Format:           format,
		DecodeFallbacks:  fallbacks,

		ReportBuilds: ing.reportBuilds,
		ReportShared: ing.reportShared,
	}
	if !ing.lastSnapshot.IsZero() {
		s.SnapshotAge = time.Since(ing.lastSnapshot).Seconds()
	}
	if ing.wmSet {
		s.Watermark = ing.wm.UTC().Format(time.RFC3339Nano)
	}
	return s
}

// Registry returns the ingestor's shared metrics registry. /metrics renders
// it and /healthz reads build and snapshot state back out of it, so the two
// surfaces never disagree.
func (ing *Ingestor) Registry() *obs.Registry { return ing.reg }

// Fill refreshes a registry from this stats snapshot. Counters use the
// scrape-refresh pattern — the snapshot is the source of truth, taken under
// one lock, and each scrape sets the registry to it — so a scrape is as
// consistent as the snapshot itself. The registry handles exposition-format
// escaping; label values (chain categories, log names) pass through raw.
func (s Stats) Fill(reg *obs.Registry) {
	set := func(fam *obs.Family, v float64) { fam.With().Set(v) }

	set(reg.Counter("certchain_observations_total", "Observations folded into the analysis ring."), float64(s.Observations))
	set(reg.Counter("certchain_conns_visible_total", "Connections with an observable certificate chain."), float64(s.VisibleConns))
	set(reg.Counter("certchain_conns_tls13_total", "Connections whose certificates TLS 1.3 hides."), float64(s.TLS13Conns))

	catConns := reg.Counter("certchain_category_conns_total", "Connections per chain category.", "category")
	catChains := reg.Counter("certchain_category_chains_total", "Observations per chain category.", "category")
	cats := make([]int, 0, len(s.Categories))
	for cat := range s.Categories {
		cats = append(cats, int(cat))
	}
	sort.Ints(cats)
	for _, cat := range cats {
		cs := s.Categories[chain.Category(cat)]
		catConns.With(chain.Category(cat).String()).Set(float64(cs.Conns))
		catChains.With(chain.Category(cat).String()).Set(float64(cs.Chains))
	}

	set(reg.Counter("certchain_join_ssl_records_total", "ssl.log records consumed by the joiner."), float64(s.Joiner.SSLRecords))
	set(reg.Counter("certchain_join_x509_records_total", "x509.log records consumed by the joiner."), float64(s.Joiner.X509Records))
	set(reg.Counter("certchain_join_joined_total", "Connections joined with their full chain."), float64(s.Joiner.Joined))
	set(reg.Counter("certchain_join_orphans_total", "Connections dropped: a referenced certificate never arrived."), float64(s.Joiner.Orphans))
	set(reg.Counter("certchain_join_evictions_total", "Certificates evicted from the bounded join index."), float64(s.Joiner.Evictions))
	set(reg.Counter("certchain_join_dup_certs_total", "Re-logged certificate ids (first record wins)."), float64(s.Joiner.DupCerts))
	set(reg.Counter("certchain_join_forced_total", "Connections drained early by the pending-queue cap."), float64(s.Joiner.Forced))
	set(reg.Gauge("certchain_join_pending_depth", "Connections held for the x509 watermark."), float64(s.JoinPending))
	set(reg.Gauge("certchain_join_cert_index_size", "Certificates resident in the join index."), float64(s.CertIndex))

	interned := reg.Gauge("certchain_ingest_intern_entries", "Entries in the bounded interners (field strings, parsed DNs).", "kind")
	interned.With("string").Set(float64(s.InternStrings))
	interned.With("dn").Set(float64(s.InternDNs))
	set(reg.Gauge("certchain_ingest_chain_cache_entries", "Fuid sequences in the joiner's resolved-chain cache."), float64(s.ChainCache))
	set(reg.Counter("certchain_ingest_chain_cache_hits_total", "Connections whose chain came from the cache."), float64(s.ChainCacheHits))
	set(reg.Counter("certchain_ingest_chain_cache_misses_total", "Connections whose chain was resolved against the certificate index."), float64(s.ChainCacheMisses))
	fallback := reg.Counter("certchain_decode_fallback_total", "Log lines decoded by the legacy parser instead of the fast tokenizer.", "format", "reason")
	for _, reason := range zeek.FallbackReasons {
		if n, ok := s.DecodeFallbacks[reason]; ok {
			fallback.With(s.Format, reason).Set(float64(n))
		}
	}
	set(reg.Counter("certchain_ingest_report_builds_total", "Report builds run."), float64(s.ReportBuilds))
	set(reg.Counter("certchain_ingest_report_shared_total", "Report requests that joined a build already in flight."), float64(s.ReportShared))

	lag := reg.Gauge("certchain_tail_lag_bytes", "Bytes appended but not yet processed.", "log")
	rot := reg.Counter("certchain_tail_rotations_total", "Detected rotations and truncations.", "log")
	perr := reg.Counter("certchain_tail_parse_errors_total", "Malformed lines dropped.", "log")
	for _, t := range []struct {
		log string
		st  TailStats
	}{{"ssl", s.SSLTail}, {"x509", s.X509Tail}} {
		lag.With(t.log).Set(float64(t.st.LagBytes))
		rot.With(t.log).Set(float64(t.st.Rotations))
		perr.With(t.log).Set(float64(t.st.ParseErrs))
	}

	set(reg.Gauge("certchain_open_aggregates", "Aggregates in still-open windows."), float64(s.OpenAggs))
	set(reg.Gauge("certchain_live_buckets", "Live (unspilled) ring buckets."), float64(s.LiveBuckets))
	set(reg.Counter("certchain_folded_windows_total", "Windows folded into the ring."), float64(s.FoldedWindows))
	set(reg.Counter("certchain_late_conns_total", "Connections landing in already-folded windows."), float64(s.LateConns))
	set(reg.Counter("certchain_record_errors_total", "Records rejected by the join layer."), float64(s.RecordErrs))
	set(reg.Counter("certchain_snapshots_total", "State snapshots written."), float64(s.Snapshots))
	set(reg.Gauge("certchain_snapshot_age_seconds", "Seconds since the last snapshot (-1 before the first)."), s.SnapshotAge)
	set(reg.Gauge("certchain_uptime_seconds", "Seconds since the daemon started."), s.Uptime)
}
