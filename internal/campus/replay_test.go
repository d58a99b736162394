// Replay emitter tests live in an external package so they can compare the
// live-ordered streams against the batch exporter/loader in
// internal/analysis (which imports campus).
package campus_test

import (
	"bytes"
	"fmt"
	"reflect"
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

// TestReplayMatchesBatchExporter: the live-ordered streams must aggregate
// back to exactly the observations the batch exporter's streams do — same
// rows, different file order.
func TestReplayMatchesBatchExporter(t *testing.T) {
	s := replayScenario(t)
	const maxConns = 4

	var lssl, lx509 bytes.Buffer
	if err := campus.Replay(s.Observations, &lssl, &lx509, campus.ReplayOptions{MaxConnsPerObservation: maxConns}); err != nil {
		t.Fatal(err)
	}
	var bssl, bx509 bytes.Buffer
	if err := analysis.Write(s.Observations, &bssl, &bx509, analysis.WriteOptions{MaxConnsPerObservation: maxConns}); err != nil {
		t.Fatal(err)
	}

	live, err := analysis.Load(bytes.NewReader(lssl.Bytes()), bytes.NewReader(lx509.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	batch, err := analysis.Load(bytes.NewReader(bssl.Bytes()), bytes.NewReader(bx509.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(live) == 0 {
		t.Fatal("replay produced no observations")
	}
	if !reflect.DeepEqual(sortedKeys(live), sortedKeys(batch)) {
		t.Errorf("replay aggregates differ from batch exporter (%d vs %d observations)", len(live), len(batch))
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
// past ≈292 rows), scattering rows outside [First, Last]. Both writers must
// emit non-decreasing timestamps from First to Last, and the replayed logs
// must join without orphans or forced drains.
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

	var rssl, rx509, wssl, wx509 bytes.Buffer
	if err := campus.Replay(obs, &rssl, &rx509, campus.ReplayOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := analysis.Write(obs, &wssl, &wx509, analysis.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct {
		name string
		ssl  []byte
	}{{"Replay", rssl.Bytes()}, {"Write", wssl.Bytes()}} {
		name, recs := w.name, readAllRecords(t, w.ssl)
		if int64(len(recs)) != o.Conns {
			t.Fatalf("%s: %d ssl rows, want %d", name, len(recs), o.Conns)
		}
		var prev time.Time
		for i, rec := range recs {
			ts, _ := rec.GetTime("ts")
			if ts.Before(prev) {
				t.Fatalf("%s: ts regresses at row %d: %v < %v", name, i, ts, prev)
			}
			prev = ts
		}
		if first, _ := recs[0].GetTime("ts"); !first.Equal(o.First) {
			t.Errorf("%s: first ts %v, want %v", name, first, o.First)
		}
		if !prev.Equal(o.Last) {
			t.Errorf("%s: last ts %v, want %v", name, prev, o.Last)
		}
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
	for _, rec := range readAllRecords(t, rssl.Bytes()) {
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
