// Tests for the daemon's typed decode path as the ingestor exposes it: the
// per-row allocation budget, and the counters that say which path a line
// took and where a bad one was dropped.
package ingest_test

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"certchains/internal/analysis"
	"certchains/internal/ingest"
	"certchains/internal/obs"
)

// TestPollOnceAllocsPerRow is the streaming path's allocation ratchet inside
// `go test`: a warm PollOnce over a cut of 2,048 TSV lines must stay within
// 4 allocations per row. The Record-map decode this path replaced cost ≈17;
// the typed path's steady state is the row's uid string plus amortized map
// and queue growth.
func TestPollOnceAllocsPerRow(t *testing.T) {
	const cut, budget = 2048, 4.0
	s := scenario(t, 1)
	ssl, x509 := replayBytes(t, s, false)

	// Split ssl.log at the line boundary that leaves the last `cut` lines.
	at := len(ssl)
	for n := 0; n <= cut && at > 0; n++ {
		at = bytes.LastIndexByte(ssl[:at-1], '\n') + 1
	}
	if at == 0 {
		t.Fatalf("ssl.log has fewer than %d lines", cut)
	}

	sslPath, x509Path := writeLogs(t, t.TempDir(), ssl[:at], x509)
	ing := ingest.New(newPipeline(s), ingest.Config{
		SSLPath:  sslPath,
		X509Path: x509Path,
		Window:   analysis.WindowConfig{Interval: giantInterval, Buckets: 4, Workers: 1},
	})
	defer ing.Close()
	if err := ing.PollOnce(); err != nil { // warm: header, interner, caches, buffers
		t.Fatal(err)
	}
	before := ing.Stats().Joiner.SSLRecords
	appendFile(t, sslPath, ssl[at:])

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err := ing.PollOnce()
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	rows := ing.Stats().Joiner.SSLRecords - before
	if rows < cut-1 { // the cut ends with the #close line
		t.Fatalf("measured poll decoded %d rows, want about %d", rows, cut)
	}
	perRow := float64(m1.Mallocs-m0.Mallocs) / float64(rows)
	t.Logf("%.2f allocs/row over %d rows", perRow, rows)
	if perRow > budget {
		t.Errorf("warm PollOnce allocates %.2f per row, budget %.0f", perRow, budget)
	}
}

// TestDecodeCountersByPath feeds hand-built ND-JSON logs holding one line of
// every kind the decode path distinguishes and checks each lands in its own
// counter: lines the line decoder rejects under the tailer's ParseErrs, lines
// that decode but are no valid record (or whose certificate does not build)
// under RecordErrs, and every line that left the fast tokenizer under its
// fallback reason — on Stats and on /metrics.
func TestDecodeCountersByPath(t *testing.T) {
	x509 := strings.Join([]string{
		`{"ts":1.0,"id":"Fa","certificate.subject":"CN=a","certificate.issuer":"CN=ca"}`,
		`{"ts":2.0,"id":"Fb","certificate.subject":"no-equals","certificate.issuer":"CN=ca"}`, // decodes; ToMeta rejects the DN
		`{"id":"Fc"}`, // decodes; no ts
		`{"ts":`,      // not JSON
		`{"ts":9.0,"id":"Fz","certificate.subject":"CN=z","certificate.issuer":"CN=ca"}`,
	}, "\n") + "\n"
	ssl := strings.Join([]string{
		`{"ts":1.5,"uid":"C1","id.resp_h":"10.0.0.1","id.resp_p":443,"cert_chain_fuids":["Fa"]}`,
		`{"ts":1.6,"uid":"C\u0032","id.resp_h":"10.0.0.1","id.resp_p":443,"cert_chain_fuids":["Fa"]}`, // escape
		`{"ts":1.7,"uid":"C3","nested":{"a":1},"id.resp_h":"10.0.0.1","id.resp_p":443}`,               // shape
		`{"ts":1.8}`, // fast path; no uid
		`not json`,
	}, "\n") + "\n"

	dir := t.TempDir()
	sslPath, x509Path := filepath.Join(dir, "ssl.log"), filepath.Join(dir, "x509.log")
	for path, data := range map[string]string{sslPath: ssl, x509Path: x509} {
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ing := ingest.New(newPipeline(scenario(t, 1)), ingest.Config{
		SSLPath: sslPath, X509Path: x509Path, JSON: true,
		Window: analysis.WindowConfig{Interval: giantInterval, Buckets: 4, Workers: 1},
	})
	defer ing.Close()
	drain(t, ing)

	st := ing.Stats()
	if st.SSLTail.ParseErrs != 1 || st.X509Tail.ParseErrs != 1 {
		t.Errorf("parse errors: ssl %d, x509 %d; want 1 and 1", st.SSLTail.ParseErrs, st.X509Tail.ParseErrs)
	}
	if st.RecordErrs != 3 {
		t.Errorf("record errors = %d, want 3 (bad DN, x509 without ts, ssl without uid)", st.RecordErrs)
	}
	if st.Joiner.SSLRecords != 3 || st.Joiner.X509Records != 3 || st.Joiner.Joined != 3 {
		t.Errorf("joiner saw %+v; want 3 ssl, 3 x509, 3 joined", st.Joiner)
	}
	want := map[string]int64{"escape": 1, "shape": 1, "malformed": 2}
	for reason, n := range want {
		if st.DecodeFallbacks[reason] != n {
			t.Errorf("fallbacks[%s] = %d, want %d (all: %v)", reason, st.DecodeFallbacks[reason], n, st.DecodeFallbacks)
		}
	}
	if st.ChainCacheHits != 1 || st.ChainCacheMisses != 1 || st.ChainCache != 1 {
		t.Errorf("chain cache: %d hits, %d misses, %d entries; want 1, 1, 1", st.ChainCacheHits, st.ChainCacheMisses, st.ChainCache)
	}
	if st.InternStrings == 0 || st.InternDNs == 0 {
		t.Errorf("interners report empty: %d strings, %d DNs", st.InternStrings, st.InternDNs)
	}

	text := exposition(st)
	if err := obs.ValidateExposition([]byte(text)); err != nil {
		t.Fatalf("exposition fails conformance: %v", err)
	}
	for _, series := range []string{
		`certchain_decode_fallback_total{format="json",reason="escape"} 1`,
		`certchain_decode_fallback_total{format="json",reason="malformed"} 2`,
		`certchain_ingest_chain_cache_hits_total 1`,
		`certchain_ingest_chain_cache_entries 1`,
		`certchain_ingest_intern_entries{kind="dn"}`,
	} {
		if !strings.Contains(text, series) {
			t.Errorf("exposition missing %q", series)
		}
	}
}
