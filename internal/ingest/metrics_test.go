// Conformance suite for the daemon's metrics surface: everything the shared
// registry renders — from a synthetic Stats with hostile label bytes to a
// real drained ingestor's /metrics — must pass the Prometheus text-format
// checker (satellite #1 of the observability issue).
package ingest_test

import (
	"strings"
	"testing"

	"certchains/internal/analysis"
	"certchains/internal/chain"
	"certchains/internal/ingest"
	"certchains/internal/obs"
	"certchains/internal/zeek"
)

// exposition renders st through a fresh registry, the way /metrics renders
// the shared one.
func exposition(st ingest.Stats) string {
	reg := obs.NewRegistry()
	st.Fill(reg)
	return reg.Text()
}

// TestStatsPrometheusConformance renders a fully populated Stats — every
// family, every label — and runs the format checker over it.
func TestStatsPrometheusConformance(t *testing.T) {
	st := ingest.Stats{
		Observations: 12,
		TLS13Conns:   3,
		VisibleConns: 9,
		Categories: map[chain.Category]analysis.CategoryStats{
			chain.PublicDBOnly: {Conns: 5, Chains: 4},
			chain.Hybrid:       {Conns: 2, Chains: 2},
		},
		Joiner:        zeek.JoinerStats{SSLRecords: 20, X509Records: 30, Joined: 12, Orphans: 1},
		JoinPending:   2,
		CertIndex:     15,
		SSLTail:       ingest.TailStats{LagBytes: 10, Rotations: 1},
		X509Tail:      ingest.TailStats{ParseErrs: 2},
		OpenAggs:      1,
		LiveBuckets:   4,
		FoldedWindows: 6,
		SnapshotAge:   -1,
		Uptime:        1.5,

		InternStrings:    40,
		InternDNs:        9,
		ChainCache:       3,
		ChainCacheHits:   11,
		ChainCacheMisses: 4,
		Format:           "json",
		DecodeFallbacks:  map[string]int64{"escape": 2, "shape": 0, "malformed": 1},

		ReportBuilds: 5,
		ReportShared: 13,
	}
	text := exposition(st)
	if err := obs.ValidateExposition([]byte(text)); err != nil {
		t.Fatalf("stats exposition fails conformance: %v\n%s", err, text)
	}
	for _, want := range []string{
		"certchain_category_conns_total{category=",
		`certchain_tail_lag_bytes{log="ssl"} 10`,
		`certchain_tail_parse_errors_total{log="x509"} 2`,
		"certchain_snapshot_age_seconds -1",
		`certchain_ingest_intern_entries{kind="string"} 40`,
		`certchain_ingest_intern_entries{kind="dn"} 9`,
		"certchain_ingest_chain_cache_entries 3",
		"certchain_ingest_chain_cache_hits_total 11",
		"certchain_ingest_chain_cache_misses_total 4",
		`certchain_decode_fallback_total{format="json",reason="escape"} 2`,
		`certchain_decode_fallback_total{format="json",reason="shape"} 0`,
		`certchain_decode_fallback_total{format="json",reason="malformed"} 1`,
		"certchain_ingest_report_builds_total 5",
		"certchain_ingest_report_shared_total 13",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestFillEscapesHostileLabels refreshes a registry through the same Fill
// path the daemon scrapes, with category-like label bytes a hand-rolled
// writer would mangle; the registry must escape them and the output must
// still validate. (Real category names are tame; the test guards the
// mechanism, not the current data.)
func TestFillEscapesHostileLabels(t *testing.T) {
	reg := obs.NewRegistry()
	ingest.Stats{SnapshotAge: -1}.Fill(reg)
	// Ride the same registry the daemon would keep across scrapes, adding a
	// family with hostile values next to the Stats families.
	reg.Gauge("certchain_test_subject", "Hostile label bytes.", "subject").
		With(`CN="O\U", left` + "\nline2").Set(1)
	text := reg.Text()
	if err := obs.ValidateExposition([]byte(text)); err != nil {
		t.Fatalf("escaped exposition fails conformance: %v\n%s", err, text)
	}
	if !strings.Contains(text, `subject="CN=\"O\\U\", left\nline2"`) {
		t.Errorf("hostile label not escaped:\n%s", text)
	}
}

// TestScrapeRefreshIsIdempotent: Fill uses the scrape-refresh pattern (Set,
// not Add), so two fills from the same snapshot must not double-count, and
// equal states must render byte-identically.
func TestScrapeRefreshIsIdempotent(t *testing.T) {
	st := ingest.Stats{Observations: 7, VisibleConns: 5, SnapshotAge: 2}
	reg := obs.NewRegistry()
	st.Fill(reg)
	first := reg.Text()
	st.Fill(reg)
	if second := reg.Text(); second != first {
		t.Errorf("second fill changed the exposition:\n%s\nvs\n%s", second, first)
	}
	if !strings.Contains(first, "certchain_observations_total 7") {
		t.Errorf("counter not refreshed to snapshot value:\n%s", first)
	}
}
