package zeek

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"certchains/internal/certmodel"
)

// incFixture builds a small ts-sorted pair of record streams: certificates
// always logged at (or before) the connections that reference them, exactly
// like Zeek writes them.
func incFixture() (ssls []*SSLRecord, x509s []*X509Record) {
	bt := true
	cert := func(id, subject, issuer string, ts time.Time) *X509Record {
		x := &X509Record{
			TS: ts, ID: id, Version: 3, Serial: "0A",
			Subject: "CN=" + subject, Issuer: "CN=" + issuer,
			NotValidBefore: ts0.AddDate(0, -1, 0), NotValidAfter: ts0.AddDate(1, 0, 0),
			KeyAlg: "rsa", SigAlg: "sha256WithRSAEncryption", KeyType: "rsa", KeyLength: 2048,
		}
		if subject == issuer {
			x.BasicConstraintsCA = &bt
		}
		return x
	}
	conn := func(uid string, ts time.Time, sni string, fuids ...string) *SSLRecord {
		return &SSLRecord{
			TS: ts, UID: uid, OrigH: "10.0.0.1", OrigP: 40000, RespH: "192.0.2.1", RespP: 443,
			Version: "TLSv12", Cipher: "TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256",
			ServerName: sni, Established: true, CertChainFUIDs: fuids,
		}
	}
	at := func(s int) time.Time { return ts0.Add(time.Duration(s) * time.Second) }

	x509s = []*X509Record{
		cert("Fleaf1", "a.example", "Inner CA", at(0)),
		cert("Froot", "Inner CA", "Inner CA", at(0)),
		cert("Fleaf2", "b.example", "Inner CA", at(10)),
		cert("Fleaf1", "a.example", "Inner CA", at(20)), // re-logged: dup
		cert("Flate", "late.example", "Inner CA", at(40)),
	}
	ssls = []*SSLRecord{
		conn("C1", at(1), "a.example", "Fleaf1", "Froot"),
		conn("C2", at(11), "b.example", "Fleaf2", "Froot"),
		conn("C3", at(12), "", "Fmissing"), // referenced cert never logged
		conn("C4", at(21), "a.example", "Fleaf1", "Froot"),
		conn("C5", at(30), ""), // TLS 1.3 style: no chain logged
		conn("C6", at(41), "late.example", "Flate"),
	}
	return
}

// feed pushes the two streams through a joiner in the interleaving given by
// pattern ('s' = next ssl record, 'x' = next x509 record), returning the
// emitted UID sequence.
func feedJoiner(t *testing.T, j *IncrementalJoiner, emitted *[]string, pattern string) {
	t.Helper()
	ssls, x509s := incFixture()
	si, xi := 0, 0
	for _, step := range pattern {
		switch step {
		case 's':
			if err := j.AddSSL(ssls[si]); err != nil {
				t.Fatal(err)
			}
			si++
		case 'x':
			if err := j.AddX509(x509s[xi]); err != nil {
				t.Fatal(err)
			}
			xi++
		}
	}
	if si != len(ssls) || xi != len(x509s) {
		t.Fatalf("pattern %q consumed %d/%d ssl, %d/%d x509", pattern, si, len(ssls), xi, len(x509s))
	}
	if err := j.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalJoinPollIndependence(t *testing.T) {
	// Each pattern is one way poll cycles could interleave the two files.
	patterns := []string{
		"xxxxxssssss", // x509 fully read first (the batch join's order)
		"ssssssxxxxx", // ssl fully read first: everything held, drained late
		"xxssxssxsxs", // alternating chunks
		"sxsxsxxssxs",
	}
	var want []string
	var wantStats JoinerStats
	for i, pat := range patterns {
		var got []string
		j := NewIncrementalJoiner(0, 0, func(c *Connection) error {
			got = append(got, c.SSL.UID)
			return nil
		})
		feedJoiner(t, j, &got, pat)
		if i == 0 {
			want, wantStats = got, j.Stats()
			// Sanity: ssl.log order, orphan dropped.
			if !reflect.DeepEqual(want, []string{"C1", "C2", "C4", "C5", "C6"}) {
				t.Fatalf("emission = %v", want)
			}
			if j.Stats().Orphans != 1 {
				t.Fatalf("orphans = %d, want 1", j.Stats().Orphans)
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("pattern %q emitted %v, want %v", pat, got, want)
		}
		if j.Stats() != wantStats {
			t.Errorf("pattern %q stats %+v, want %+v", pat, j.Stats(), wantStats)
		}
	}
}

func TestIncrementalJoinWatermarkHolds(t *testing.T) {
	ssls, x509s := incFixture()
	var got []string
	j := NewIncrementalJoiner(0, 0, func(c *Connection) error {
		got = append(got, c.SSL.UID)
		return nil
	})
	// C1 (ts+1) with its certs indexed but watermark still at ts+0: held.
	j.AddX509(x509s[0])
	j.AddX509(x509s[1])
	j.AddSSL(ssls[0])
	if len(got) != 0 || j.PendingDepth() != 1 {
		t.Fatalf("connection released before watermark passed: got=%v depth=%d", got, j.PendingDepth())
	}
	// Watermark moves to ts+10 > ts+1: C1 drains.
	j.AddX509(x509s[2])
	if !reflect.DeepEqual(got, []string{"C1"}) {
		t.Fatalf("after watermark advance: %v", got)
	}
}

func TestIncrementalJoinChainOrderAndContent(t *testing.T) {
	// The emitted Connection is pooled: copy what outlives the callback.
	var conns []Connection
	j := NewIncrementalJoiner(0, 0, func(c *Connection) error {
		conns = append(conns, *c)
		return nil
	})
	var emitted []string
	feedJoiner(t, j, &emitted, "xxxxxssssss")
	if len(conns) != 5 {
		t.Fatalf("%d connections", len(conns))
	}
	c1 := conns[0]
	if len(c1.Chain) != 2 || c1.Chain[0].Subject.CommonName() != "a.example" || !c1.Chain[1].SelfSigned() {
		t.Errorf("C1 chain wrong: %v", c1.Chain)
	}
	if len(conns[3].Chain) != 0 {
		t.Errorf("C5 should have an empty chain")
	}
}

// TestIncrementalJoinBoundedMemory is the no-leak regression: orphaned fuids
// and an unbounded certificate history must not grow the joiner.
func TestIncrementalJoinBoundedMemory(t *testing.T) {
	j := NewIncrementalJoiner(4, 8, func(c *Connection) error { return nil })
	at := func(s int) time.Time { return ts0.Add(time.Duration(s) * time.Second) }
	for i := 0; i < 100; i++ {
		x := &X509Record{
			TS: at(i), ID: fmt.Sprintf("F%03d", i), Version: 3,
			Subject: "CN=s", Issuer: "CN=i",
			NotValidBefore: ts0, NotValidAfter: ts0.AddDate(1, 0, 0),
		}
		if err := j.AddX509(x); err != nil {
			t.Fatal(err)
		}
		if j.CertIndexSize() > 4 {
			t.Fatalf("cert index grew to %d past cap", j.CertIndexSize())
		}
	}
	if j.Stats().Evictions != 96 {
		t.Errorf("evictions = %d, want 96", j.Stats().Evictions)
	}
	// ssl records referencing long-evicted (or never-logged) certs: the hold
	// queue must stay bounded by the valve and the connections drop as
	// orphans instead of accumulating.
	for i := 0; i < 100; i++ {
		r := &SSLRecord{TS: at(200 + i), UID: fmt.Sprintf("C%03d", i), CertChainFUIDs: []string{"F000"}}
		if err := j.AddSSL(r); err != nil {
			t.Fatal(err)
		}
		if j.PendingDepth() > 8 {
			t.Fatalf("pending depth grew to %d past cap", j.PendingDepth())
		}
	}
	if err := j.Finish(); err != nil {
		t.Fatal(err)
	}
	if j.PendingDepth() != 0 {
		t.Errorf("pending depth = %d after Finish", j.PendingDepth())
	}
	st := j.Stats()
	if st.Orphans != 100 {
		t.Errorf("orphans = %d, want 100", st.Orphans)
	}
	if st.Forced == 0 {
		t.Error("capacity valve never fired")
	}
}

func TestIncrementalJoinStateRoundTrip(t *testing.T) {
	ssls, x509s := incFixture()

	run := func(split int) ([]string, JoinerStats) {
		var got []string
		emit := func(c *Connection) error { got = append(got, c.SSL.UID); return nil }
		j := NewIncrementalJoiner(0, 0, emit)
		// Interleave deterministically: all certs with ts <= conn ts first.
		xi := 0
		feedOne := func(i int) {
			for xi < len(x509s) && !x509s[xi].TS.After(ssls[i].TS) {
				if err := j.AddX509(x509s[xi]); err != nil {
					t.Fatal(err)
				}
				xi++
			}
			if err := j.AddSSL(ssls[i]); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < split; i++ {
			feedOne(i)
		}
		if split < len(ssls) {
			// Serialize, "crash", restore into a fresh joiner.
			data, err := json.Marshal(j.State())
			if err != nil {
				t.Fatal(err)
			}
			var state JoinerState
			if err := json.Unmarshal(data, &state); err != nil {
				t.Fatal(err)
			}
			j = NewIncrementalJoiner(0, 0, emit)
			if err := j.RestoreState(&state); err != nil {
				t.Fatal(err)
			}
			for i := split; i < len(ssls); i++ {
				feedOne(i)
			}
		}
		for ; xi < len(x509s); xi++ {
			if err := j.AddX509(x509s[xi]); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Finish(); err != nil {
			t.Fatal(err)
		}
		return got, j.Stats()
	}

	wantEmit, wantStats := run(len(ssls))
	for split := 0; split < len(ssls); split++ {
		got, stats := run(split)
		if !reflect.DeepEqual(got, wantEmit) {
			t.Errorf("split %d emitted %v, want %v", split, got, wantEmit)
		}
		if stats != wantStats {
			t.Errorf("split %d stats %+v, want %+v", split, stats, wantStats)
		}
	}
}

// TestIncrementalJoinRestoreHonorsSmallerCap restarts a joiner with a smaller
// certificate cap than the one that wrote its snapshot: the restore must
// evict the oldest certificates down to the new cap, count them, and keep
// the index there as more certificates arrive.
func TestIncrementalJoinRestoreHonorsSmallerCap(t *testing.T) {
	at := func(s int) time.Time { return ts0.Add(time.Duration(s) * time.Second) }
	cert := func(j *IncrementalJoiner, i int) {
		t.Helper()
		x := &X509Record{TS: at(i), ID: fmt.Sprintf("F%03d", i), Subject: "CN=s", Issuer: "CN=i"}
		if err := j.AddX509(x); err != nil {
			t.Fatal(err)
		}
	}
	nop := func(*Connection) error { return nil }
	big := NewIncrementalJoiner(100, 0, nop)
	for i := 0; i < 50; i++ {
		cert(big, i)
	}
	small := NewIncrementalJoiner(10, 0, nop)
	if err := small.RestoreState(big.State()); err != nil {
		t.Fatal(err)
	}
	if got := small.CertIndexSize(); got != 10 {
		t.Fatalf("cert index after restore = %d, want 10", got)
	}
	if got := small.Stats().Evictions; got != 40 {
		t.Errorf("evictions after restore = %d, want 40", got)
	}
	// The newest certificates survive: F040 is indexed, F039 is not.
	if err := small.AddSSL(&SSLRecord{TS: at(48), UID: "Ckept", CertChainFUIDs: []string{"F040"}}); err != nil {
		t.Fatal(err)
	}
	if err := small.AddSSL(&SSLRecord{TS: at(48), UID: "Cgone", CertChainFUIDs: []string{"F039"}}); err != nil {
		t.Fatal(err)
	}
	for i := 50; i < 100; i++ {
		cert(small, i)
	}
	if got := small.CertIndexSize(); got != 10 {
		t.Errorf("cert index after 50 more = %d, want 10", got)
	}
	if st := small.Stats(); st.Joined != 1 || st.Orphans != 1 || st.Evictions != 90 {
		t.Errorf("stats = %+v, want 1 joined, 1 orphan, 90 evictions", st)
	}
}

// TestIncrementalJoinHeldRowsSurviveDecoding is the pooled-row retention
// test: the decoder reuses one SSLRecord and one fuid array for every line,
// so a connection parked in the hold queue (watermark not yet past it) must
// come out with the values of its own line, whatever was decoded — and
// however the queue grew, wrapped and refilled — in between.
func TestIncrementalJoinHeldRowsSurviveDecoding(t *testing.T) {
	var got []SSLRecord
	j := NewIncrementalJoiner(0, 0, func(c *Connection) error {
		r := *c.SSL
		r.CertChainFUIDs = append([]string(nil), r.CertChainFUIDs...)
		got = append(got, r)
		if len(c.Chain) != len(r.CertChainFUIDs) {
			t.Errorf("%s: chain of %d for %d fuids", r.UID, len(c.Chain), len(r.CertChainFUIDs))
		}
		for i, m := range c.Chain {
			if string(m.FP) != r.CertChainFUIDs[i] {
				t.Errorf("%s: chain[%d] = %s, want %s", r.UID, i, m.FP, r.CertChainFUIDs[i])
			}
		}
		return nil
	})
	cert := func(id string, sec int) {
		t.Helper()
		x := &X509Record{TS: ts0.Add(time.Duration(sec) * time.Second), ID: id, Subject: "CN=" + id, Issuer: "CN=ca"}
		if err := j.AddX509(x); err != nil {
			t.Fatal(err)
		}
	}
	fuidSets := [][]string{{"Fa", "Fb", "Fc"}, nil, {"Fc"}, {"Fb", "Fa"}}
	for _, id := range []string{"Fa", "Fb", "Fc"} {
		cert(id, 0)
	}

	dec := NewRowDecoder(false, &certmodel.Interner{})
	if st, _ := dec.decodeSSL([]byte(strings.TrimSuffix(tsvSSLHeader[strings.Index(tsvSSLHeader, "#fields"):], "\n"))); st != rowNone {
		t.Fatalf("header line decoded to status %d", st)
	}
	var want []SSLRecord
	feed := func(n int) {
		t.Helper()
		for range n {
			i := len(want)
			r := SSLRecord{
				TS: ts0.Add(time.Duration(i+1) * time.Second).UTC(), UID: fmt.Sprintf("C%03d", i),
				OrigH: fmt.Sprintf("10.0.%d.%d", i/7, i%7), OrigP: 40000 + i, RespH: fmt.Sprintf("192.0.2.%d", i%5), RespP: 443 + i%3,
				Version: "TLSv12", Cipher: fmt.Sprintf("CIPHER_%d", i%4), ServerName: fmt.Sprintf("host%d.example", i%9),
				Resumed: i%2 == 0, Established: i%3 != 0, CertChainFUIDs: fuidSets[i%len(fuidSets)],
			}
			want = append(want, r)
			var line strings.Builder
			w := NewLogWriter(false, &line, io.Discard, ts0)
			if err := w.WriteSSL(&r); err != nil {
				t.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			rows := strings.Split(strings.TrimSpace(line.String()), "\n")
			if st, err := dec.decodeSSL([]byte(rows[len(rows)-1])); st != rowOK {
				t.Fatalf("row %d: status %d, %v", i, st, err)
			}
			if err := j.AddSSL(&dec.ssl); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(released int) {
		t.Helper()
		if len(got) != released {
			t.Fatalf("%d connections released, want %d", len(got), released)
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("connection %d changed while held:\n got %+v\nwant %+v", i, got[i], want[i])
			}
		}
	}

	feed(40) // all held: the queue grows past its first arrays
	check(0)
	cert("Fd", 26) // watermark passes the first 25
	check(25)
	feed(30) // the queue wraps and refills slots whose rows already left
	check(25)
	if j.PendingDepth() != 45 {
		t.Fatalf("pending depth %d, want 45", j.PendingDepth())
	}
	// A snapshot taken now must not alias the live slots either.
	state := j.State()
	feed(5)
	for i, r := range state.Pending {
		if !reflect.DeepEqual(*r, want[25+i]) {
			t.Fatalf("snapshotted pending[%d] changed after the snapshot:\n got %+v\nwant %+v", i, *r, want[25+i])
		}
	}
	if err := j.Finish(); err != nil {
		t.Fatal(err)
	}
	check(75)
}

// TestIncrementalJoinChainCacheFollowsEvictions pins the chain cache to the
// index: once a certificate is evicted, a cached chain holding it must not
// resurrect it, and a re-logged certificate must show up as the new record.
func TestIncrementalJoinChainCacheFollowsEvictions(t *testing.T) {
	var chains []certmodel.Chain
	j := NewIncrementalJoiner(2, 0, func(c *Connection) error {
		chains = append(chains, c.Chain)
		return nil
	})
	at := func(s int) time.Time { return ts0.Add(time.Duration(s) * time.Second) }
	cert := func(id, cn string, s int) {
		t.Helper()
		if err := j.AddX509(&X509Record{TS: at(s), ID: id, Subject: "CN=" + cn, Issuer: "CN=ca"}); err != nil {
			t.Fatal(err)
		}
	}
	conn := func(s int, fuids ...string) {
		t.Helper()
		if err := j.AddSSL(&SSLRecord{TS: at(s), UID: fmt.Sprint("C", s), CertChainFUIDs: fuids}); err != nil {
			t.Fatal(err)
		}
	}
	cert("F1", "one", 0)
	cert("F2", "two", 0)
	conn(1, "F1", "F2")
	conn(2, "F1", "F2")
	// F3's arrival evicts F1 before it releases the two connections, so both
	// are orphans.
	cert("F3", "three", 10)
	if st := j.Stats(); st.Orphans != 2 || st.Joined != 0 || st.Evictions != 1 {
		t.Fatalf("after eviction: %+v", st)
	}
	conn(11, "F2", "F3")
	conn(12, "F2", "F3")
	cert("F2", "dup", 20) // re-logged while still indexed: first record wins
	if cs := j.CacheStats(); cs.ChainHits != 1 || cs.ChainEntries != 1 {
		t.Fatalf("cache after two equal chains: %+v", cs)
	}
	if len(chains) != 2 || &chains[0][0] != &chains[1][0] {
		t.Fatalf("equal fuid sequences did not share the canonical chain")
	}
	cert("F4", "four", 21) // evicts F2
	conn(22, "F2", "F3")   // cached, but stale
	cert("F2", "two-again", 30)
	conn(31, "F2", "F3") // F3 was evicted by the re-logged F2
	conn(32, "F4", "F2")
	if err := j.Finish(); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.Orphans != 4 || st.Joined != 3 {
		t.Fatalf("final: %+v", st)
	}
	if got := chains[2][1].Subject.CommonName(); got != "two-again" {
		t.Fatalf("re-logged certificate resolved to %q", got)
	}
}
