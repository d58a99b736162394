// Replay emitter tests live in an external package so they can load the
// live-ordered streams back through the loader in internal/analysis (which
// imports campus).
package campus_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"certchains/internal/analysis"
	"certchains/internal/campus"
	"certchains/internal/zeek"
)

func replayScenario(t *testing.T) *campus.Scenario {
	t.Helper()
	cfg := campus.DefaultConfig()
	cfg.Seed = 7
	cfg.Scale = 0.002
	s, err := campus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func readAllRecords(t *testing.T, data []byte) []zeek.Record {
	t.Helper()
	dec := zeek.NewTSVDecoder()
	var recs []zeek.Record
	for _, line := range strings.Split(string(data), "\n") {
		rec, err := dec.Decode(line)
		if err != nil {
			t.Fatal(err)
		}
		if rec != nil {
			recs = append(recs, rec)
		}
	}
	return recs
}

// obsKey canonicalizes a loaded observation for multiset comparison.
func obsKey(o *campus.Observation) string {
	return strings.Join([]string{
		o.Chain.Key(), o.ServerIP, fmt.Sprint(o.Port), o.Domain,
		fmt.Sprint(o.TLS13), fmt.Sprint(o.Conns), fmt.Sprint(o.Established),
		fmt.Sprint(o.NoSNI), o.First.UTC().String(), o.Last.UTC().String(),
		strings.Join(o.ClientIPs, ","),
	}, "§")
}

func sortedKeys(obs []*campus.Observation) []string {
	keys := make([]string, len(obs))
	for i, o := range obs {
		keys[i] = obsKey(o)
	}
	sort.Strings(keys)
	return keys
}

func TestReplayTimeOrderedAndJoinable(t *testing.T) {
	s := replayScenario(t)
	var ssl, x509 bytes.Buffer
	var paced []time.Time
	err := campus.Replay(s.Observations, &ssl, &x509, campus.ReplayOptions{
		MaxConnsPerObservation: 4,
		Pace:                   func(ts time.Time) error { paced = append(paced, ts); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}

	// Pace sees every record, in non-decreasing log time.
	for i := 1; i < len(paced); i++ {
		if paced[i].Before(paced[i-1]) {
			t.Fatalf("pace timestamps regress at %d: %v < %v", i, paced[i], paced[i-1])
		}
	}

	// Both files are timestamp-ordered, and every referenced certificate was
	// logged at or before its connection — the watermark joiner's invariant.
	certTS := make(map[string]time.Time)
	var prev time.Time
	for i, rec := range readAllRecords(t, x509.Bytes()) {
		ts, _ := rec.GetTime("ts")
		if i > 0 && ts.Before(prev) {
			t.Fatalf("x509.log regresses at row %d", i)
		}
		prev = ts
		x, err := zeek.ParseX509Record(rec)
		if err != nil {
			t.Fatal(err)
		}
		if _, dup := certTS[x.ID]; !dup {
			certTS[x.ID] = ts
		}
	}
	sslRecs := readAllRecords(t, ssl.Bytes())
	prev = time.Time{}
	for i, rec := range sslRecs {
		ts, _ := rec.GetTime("ts")
		if i > 0 && ts.Before(prev) {
			t.Fatalf("ssl.log regresses at row %d", i)
		}
		prev = ts
		r, err := zeek.ParseSSLRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		for _, fuid := range r.CertChainFUIDs {
			cts, ok := certTS[fuid]
			if !ok {
				t.Fatalf("row %d references unlogged certificate %s", i, fuid)
			}
			if cts.After(ts) {
				t.Fatalf("certificate %s logged after its connection (%v > %v)", fuid, cts, ts)
			}
		}
	}

	// The incremental joiner over the merged time-ordered stream joins every
	// connection: no orphans in a clean replay.
	x509Recs := readAllRecords(t, x509.Bytes())
	var joined int64
	j := zeek.NewIncrementalJoiner(0, 0, func(c *zeek.Connection) error { joined++; return nil })
	xi := 0
	for _, rec := range sslRecs {
		ts, _ := rec.GetTime("ts")
		for xi < len(x509Recs) {
			xts, _ := x509Recs[xi].GetTime("ts")
			if xts.After(ts) {
				break
			}
			if err := j.AddX509Record(x509Recs[xi]); err != nil {
				t.Fatal(err)
			}
			xi++
		}
		if err := j.AddSSLRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	for ; xi < len(x509Recs); xi++ {
		if err := j.AddX509Record(x509Recs[xi]); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Finish(); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.Orphans != 0 || joined != int64(len(sslRecs)) {
		t.Fatalf("joiner stats %+v, joined %d of %d", st, joined, len(sslRecs))
	}
}

func TestReplayJSONFormat(t *testing.T) {
	s := replayScenario(t)
	var jssl, jx509, tssl, tx509 bytes.Buffer
	if err := campus.Replay(s.Observations, &jssl, &jx509, campus.ReplayOptions{MaxConnsPerObservation: 3, JSON: true}); err != nil {
		t.Fatal(err)
	}
	if err := campus.Replay(s.Observations, &tssl, &tx509, campus.ReplayOptions{MaxConnsPerObservation: 3}); err != nil {
		t.Fatal(err)
	}
	jobs, err := analysis.LoadFormat(analysis.FormatJSON, bytes.NewReader(jssl.Bytes()), bytes.NewReader(jx509.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	tobs, err := analysis.Load(bytes.NewReader(tssl.Bytes()), bytes.NewReader(tx509.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sortedKeys(jobs), sortedKeys(tobs)) {
		t.Error("JSON replay aggregates differ from TSV replay")
	}
}

// TestConnExpansionLongSpan: an observation with thousands of connections
// over a year used to overflow the timestamp interpolation (i*span in int64
// past ≈292 rows), scattering rows outside [First, Last]. Replay must emit
// non-decreasing timestamps from First to Last, and its logs must join
// without orphans or forced drains.
func TestConnExpansionLongSpan(t *testing.T) {
	var o campus.Observation
	for _, cand := range replayScenario(t).Observations {
		if len(cand.Chain) > 0 {
			o = *cand
			break
		}
	}
	o.Conns, o.Established, o.NoSNI = 5000, 5000, 0
	o.First = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	o.Last = o.First.Add(365 * 24 * time.Hour)
	obs := []*campus.Observation{&o}

	var rssl, rx509 bytes.Buffer
	if err := campus.Replay(obs, &rssl, &rx509, campus.ReplayOptions{}); err != nil {
		t.Fatal(err)
	}
	recs := readAllRecords(t, rssl.Bytes())
	if int64(len(recs)) != o.Conns {
		t.Fatalf("%d ssl rows, want %d", len(recs), o.Conns)
	}
	var prev time.Time
	for i, rec := range recs {
		ts, _ := rec.GetTime("ts")
		if ts.Before(prev) {
			t.Fatalf("ts regresses at row %d: %v < %v", i, ts, prev)
		}
		prev = ts
	}
	if first, _ := recs[0].GetTime("ts"); !first.Equal(o.First) {
		t.Errorf("first ts %v, want %v", first, o.First)
	}
	if !prev.Equal(o.Last) {
		t.Errorf("last ts %v, want %v", prev, o.Last)
	}

	// One observation: every certificate is logged at First, so x509.log
	// then ssl.log is the merged time order.
	var joined int64
	j := zeek.NewIncrementalJoiner(0, 0, func(*zeek.Connection) error { joined++; return nil })
	for _, rec := range readAllRecords(t, rx509.Bytes()) {
		if err := j.AddX509Record(rec); err != nil {
			t.Fatal(err)
		}
	}
	for _, rec := range recs {
		if err := j.AddSSLRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Finish(); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.Orphans != 0 || st.Forced != 0 || joined != o.Conns {
		t.Errorf("joiner stats %+v, joined %d of %d", st, joined, o.Conns)
	}
}

// replayOracle is the materialise-and-sort Replay the merge replaced: every
// row becomes a tagged record, the records are stable-sorted by (ts,
// certificate before connection, generation ordinal) and written in that
// order. It is kept verbatim as the reference the merge must match byte for
// byte.
func replayOracle(observations []*campus.Observation, ssl, x509 io.Writer, opts campus.ReplayOptions) error {
	type replayRecord struct {
		ts  time.Time
		ord int
		x   *zeek.X509Record
		s   *zeek.SSLRecord
	}
	if opts.BatchRecords <= 0 {
		opts.BatchRecords = 64
	}
	var recs []*replayRecord
	uid := 0
	ord := 0
	add := func(r *replayRecord) {
		r.ord = ord
		ord++
		recs = append(recs, r)
	}
	certFirst := make(map[string]time.Time)
	for _, o := range observations {
		for _, m := range o.Chain {
			if t, ok := certFirst[string(m.FP)]; !ok || o.First.Before(t) {
				certFirst[string(m.FP)] = o.First
			}
		}
	}
	seenCert := make(map[string]bool)
	for _, o := range observations {
		fuids := make([]string, len(o.Chain))
		for i, m := range o.Chain {
			fuids[i] = string(m.FP)
			if !seenCert[fuids[i]] {
				seenCert[fuids[i]] = true
				first := certFirst[fuids[i]]
				add(&replayRecord{ts: first, x: zeek.FromMeta(m, first)})
			}
		}
		err := campus.ExpandConns(o, fuids, opts.MaxConnsPerObservation, &uid, func(r *zeek.SSLRecord) error {
			c := *r // ExpandConns may reuse its record between rows
			add(&replayRecord{ts: c.TS, s: &c})
			return nil
		})
		if err != nil {
			return err
		}
	}
	sort.SliceStable(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if !a.ts.Equal(b.ts) {
			return a.ts.Before(b.ts)
		}
		if (a.x != nil) != (b.x != nil) {
			return a.x != nil
		}
		return a.ord < b.ord
	})
	var open, closeAt time.Time
	if len(recs) > 0 {
		open, closeAt = recs[0].ts, recs[len(recs)-1].ts
	}
	sink := zeek.NewLogWriter(opts.JSON, ssl, x509, open)
	for i, r := range recs {
		if opts.Pace != nil {
			if err := opts.Pace(r.ts); err != nil {
				return err
			}
		}
		var err error
		if r.x != nil {
			err = sink.WriteX509(r.x)
		} else {
			err = sink.WriteSSL(r.s)
		}
		if err != nil {
			return err
		}
		if (i+1)%opts.BatchRecords == 0 {
			if err := sink.Flush(); err != nil {
				return err
			}
		}
	}
	return sink.Close(closeAt)
}

// replayDigest is what one replay leaves behind: the SHA-256 of each log and
// the (ts, ssl offset, x509 offset) seen at every Pace call. The offsets are
// the flush boundaries a tailing reader cuts at, so they are pinned with the
// bytes.
type replayDigest struct {
	SSL, X509 string
	Pace      []pacedRecord
}

type pacedRecord struct{ ts, ssl, x509 int64 }

// digestCounter hashes what it is handed and counts the bytes.
type digestCounter struct {
	h hash.Hash
	n int64
}

func newDigestCounter() *digestCounter { return &digestCounter{h: sha256.New()} }

func (d *digestCounter) Write(p []byte) (int, error) {
	d.n += int64(len(p))
	return d.h.Write(p)
}

func (d *digestCounter) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

type replayFunc func([]*campus.Observation, io.Writer, io.Writer, campus.ReplayOptions) error

func digestReplay(t *testing.T, replay replayFunc, obs []*campus.Observation, opts campus.ReplayOptions) replayDigest {
	t.Helper()
	ssl, x509 := newDigestCounter(), newDigestCounter()
	var d replayDigest
	opts.BatchRecords = 7 // flush often, so cut offsets are checked densely
	opts.Pace = func(ts time.Time) error {
		d.Pace = append(d.Pace, pacedRecord{ts.UnixNano(), ssl.n, x509.n})
		return nil
	}
	if err := replay(obs, ssl, x509, opts); err != nil {
		t.Fatal(err)
	}
	d.SSL, d.X509 = ssl.sum(), x509.sum()
	return d
}

func sameReplay(t *testing.T, obs []*campus.Observation, opts campus.ReplayOptions) {
	t.Helper()
	want := digestReplay(t, replayOracle, obs, opts)
	got := digestReplay(t, campus.Replay, obs, opts)
	if got.SSL != want.SSL || got.X509 != want.X509 {
		t.Errorf("log bytes differ from the oracle: ssl %s vs %s, x509 %s vs %s", got.SSL, want.SSL, got.X509, want.X509)
	}
	if len(got.Pace) != len(want.Pace) {
		t.Fatalf("%d paced records, oracle %d", len(got.Pace), len(want.Pace))
	}
	for i := range want.Pace {
		if got.Pace[i] != want.Pace[i] {
			t.Fatalf("paced record %d: ts/ssl/x509 %v, oracle %v", i, got.Pace[i], want.Pace[i])
		}
	}
}

func scenarioAt(t *testing.T, seed int64, scale float64) *campus.Scenario {
	t.Helper()
	cfg := campus.DefaultConfig()
	cfg.Seed = seed
	cfg.Scale = scale
	s, err := campus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// underRace is set in race-detector builds (race_test.go), which check the
// oracle on the smallest corpus only: Replay runs on one goroutine.
var underRace bool

// TestReplayMatchesOracle: the merge writes the oracle's bytes, flush for
// flush, over seeds × formats × row caps (0 is full volume). The subtests
// share one read-only scenario per seed and run in parallel.
func TestReplayMatchesOracle(t *testing.T) {
	seeds, caps := int64(3), []int64{0, 4, 256}
	if underRace {
		seeds, caps = 1, []int64{4}
	}
	for seed := int64(1); seed <= seeds; seed++ {
		s := scenarioAt(t, seed, 0.0005)
		for _, json := range []bool{false, true} {
			for _, maxConns := range caps {
				t.Run(fmt.Sprintf("seed%d/json=%v/cap%d", seed, json, maxConns), func(t *testing.T) {
					t.Parallel()
					sameReplay(t, s.Observations, campus.ReplayOptions{MaxConnsPerObservation: maxConns, JSON: json})
				})
			}
		}
	}
}

// TestReplayOracleTies pins the order where timestamps tie or observations
// are degenerate.
func TestReplayOracleTies(t *testing.T) {
	base := replayScenario(t).Observations
	var withChain []*campus.Observation
	for _, o := range base {
		if len(o.Chain) > 0 {
			withChain = append(withChain, o)
		}
	}
	at := time.Date(2024, 3, 1, 12, 0, 0, 0, time.UTC)
	obs := func(i int, conns int64, first, last time.Time) *campus.Observation {
		o := *withChain[i]
		o.Conns, o.Established, o.NoSNI = conns, conns/2, conns/3
		o.First, o.Last = first, last
		return &o
	}
	cases := []struct {
		name string
		obs  []*campus.Observation
	}{
		// The second observation's certificates are first seen at the
		// instant of one of the first's connection rows: they are logged
		// ahead of it, though generated after it.
		{"cert-and-conn-same-instant", []*campus.Observation{
			obs(0, 5, at, at.Add(4*time.Hour)),
			obs(1, 3, at.Add(2*time.Hour), at.Add(3*time.Hour)),
		}},
		// A later-generated observation that starts earlier moves its
		// certificates' shared timestamp back.
		{"shared-cert-earlier-first", []*campus.Observation{
			obs(0, 4, at.Add(time.Hour), at.Add(2*time.Hour)),
			obs(0, 4, at, at.Add(3*time.Hour)),
		}},
		{"zero-span", []*campus.Observation{
			obs(0, 6, at, at),
			obs(1, 6, at, at),
		}},
		// A one-row observation's only row is at First, so it does not
		// stretch #close to Last.
		{"one-row-last-after-first", []*campus.Observation{
			obs(0, 1, at, at.Add(48*time.Hour)),
			obs(1, 2, at.Add(time.Hour), at.Add(2*time.Hour)),
		}},
		// Conns = 0 still logs the chain.
		{"no-conns", []*campus.Observation{
			obs(0, 0, at.Add(5*time.Hour), at.Add(9*time.Hour)),
			obs(1, 2, at, at.Add(time.Hour)),
		}},
		{"last-before-first", []*campus.Observation{
			obs(0, 4, at.Add(time.Hour), at),
		}},
		{"empty", nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, json := range []bool{false, true} {
				for _, maxConns := range []int64{0, 1, 2} {
					sameReplay(t, c.obs, campus.ReplayOptions{MaxConnsPerObservation: maxConns, JSON: json})
				}
			}
		})
	}
}

// TestLogDigests pins the bytes of the log writer at seed 1, scale 0.0005,
// full volume, in both formats. The digests change only with a deliberate
// change to the generator or the log format.
func TestLogDigests(t *testing.T) {
	if underRace {
		t.Skip("full-volume logs; the writer runs on one goroutine")
	}
	s := scenarioAt(t, 1, 0.0005)
	want := map[string][2]string{
		"Replay/tsv": {
			"39520d14d3666cf9dd975c448708255916992d122b7d09b170d113d610ea54ce",
			"ebb77583784bfe689646e50dc077a1b14b098e12a7436ad2de302b04287c4aba",
		},
		"Replay/json": {
			"b3d92411ace68962ef2682a2f0385da5a3278089ea6fec1b518b6de15a608ffe",
			"98e02c9510209b3af58d01d798c8f4ffb611f19d3cb1fcb717004a286f522255",
		},
	}
	for _, json := range []bool{false, true} {
		format := "tsv"
		if json {
			format = "json"
		}
		ssl, x509 := newDigestCounter(), newDigestCounter()
		if err := campus.Replay(s.Observations, ssl, x509, campus.ReplayOptions{JSON: json}); err != nil {
			t.Fatal(err)
		}
		if got, w := [2]string{ssl.sum(), x509.sum()}, want["Replay/"+format]; got != w {
			t.Errorf("Replay/%s digests %q, want %q", format, got, w)
		}
	}
}

// BenchmarkReplay: rows written per second and allocations per row of a
// full replay, seed 1, scale 0.002, 256 rows per observation (the streaming
// benchmark corpus), into discarding writers.
func BenchmarkReplay(b *testing.B) {
	cfg := campus.DefaultConfig()
	cfg.Seed, cfg.Scale = 1, 0.002
	s, err := campus.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, json := range []bool{false, true} {
		name := "tsv"
		if json {
			name = "json"
		}
		b.Run(name, func(b *testing.B) {
			opts := campus.ReplayOptions{MaxConnsPerObservation: 256, JSON: json}
			var rows int64
			count := opts
			count.Pace = func(time.Time) error { rows++; return nil }
			if err := campus.Replay(s.Observations, io.Discard, io.Discard, count); err != nil {
				b.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := campus.Replay(s.Observations, io.Discard, io.Discard, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			total := float64(rows) * float64(b.N)
			b.ReportMetric(total/b.Elapsed().Seconds(), "rows/s")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/row")
		})
	}
}
