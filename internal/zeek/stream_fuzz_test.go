package zeek

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"certchains/internal/certmodel"
	"certchains/internal/dn"
)

// The streaming differential wall: whatever bytes land in a tailed log, cut
// into appends wherever, the daemon's typed path — Tailer line loop →
// RowDecoder — must surface exactly what the legacy path over the whole
// bytes does: LineDecoder → Parse*Record (→ ToMeta), line by line, with the
// same parse-error and record-error counts.

// rowEvent is one decoded row or one record error, deep-copied out of the
// pooled row.
type rowEvent struct {
	Err     string
	SSL     SSLRecord
	X509ID  string
	X509TS  time.Time
	Meta    metaSnap
	MetaErr string
}

type streamResult struct {
	Events    []rowEvent
	ParseErrs int64
	Closed    bool
}

// oracleStream decodes the complete content through the legacy line decoder
// and record parsers.
func oracleStream(data []byte, json, x509 bool) streamResult {
	var dec LineDecoder = NewTSVDecoder()
	if json {
		dec = NewJSONDecoder()
	}
	var res streamResult
	decode := func(line string) {
		rec, err := dec.Decode(strings.TrimSuffix(line, "\r"))
		if err != nil {
			res.ParseErrs++
			return
		}
		if rec == nil {
			return
		}
		var ev rowEvent
		if x509 {
			if xr, err := ParseX509Record(rec); err != nil {
				ev.Err = err.Error()
			} else {
				ev.X509ID, ev.X509TS = xr.ID, xr.TS
				if m, err := xr.ToMeta(); err != nil {
					ev.MetaErr = err.Error()
				} else {
					ev.Meta = snapMeta(m)
				}
			}
		} else if sr, err := ParseSSLRecord(rec); err != nil {
			ev.Err = err.Error()
		} else {
			ev.SSL = *sr
		}
		res.Events = append(res.Events, ev)
	}
	s := string(data)
	for {
		i := strings.IndexByte(s, '\n')
		if i < 0 {
			break
		}
		decode(s[:i])
		s = s[i+1:]
	}
	if s != "" {
		decode(s)
	}
	res.Closed = dec.Closed()
	return res
}

// typedStream appends data to a tailed file in chunks ending at the cut
// points and polls the typed tailer after each append.
func typedStream(t *testing.T, data []byte, json, x509 bool, cuts []int) streamResult {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stream.log")
	var res streamResult
	dec := NewRowDecoder(json, &certmodel.Interner{})
	var tl *Tailer
	if x509 {
		tl = NewX509TailerFS(path, dec, func(r *X509Row, err error) error {
			ev := rowEvent{}
			if err != nil {
				ev.Err = err.Error()
			} else {
				ev.X509ID, ev.X509TS = string(r.id), r.ts
				if m, err := r.meta(&dn.Interner{}); err != nil {
					ev.MetaErr = err.Error()
				} else {
					ev.Meta = snapMeta(m)
				}
			}
			res.Events = append(res.Events, ev)
			return nil
		}, nil)
	} else {
		tl = NewSSLTailerFS(path, dec, func(r *SSLRecord, err error) error {
			ev := rowEvent{}
			if err != nil {
				ev.Err = err.Error()
			} else {
				ev.SSL = *r
				ev.SSL.CertChainFUIDs = append([]string(nil), r.CertChainFUIDs...)
			}
			res.Events = append(res.Events, ev)
			return nil
		}, nil)
	}
	defer tl.Close()

	from := 0
	for _, cut := range append(cuts, len(data)) {
		if cut > len(data) {
			cut = len(data)
		}
		fh, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fh.Write(data[from:cut]); err != nil {
			t.Fatal(err)
		}
		fh.Close()
		from = cut
		if err := tl.PollRows(); err != nil {
			t.Fatalf("poll: %v", err)
		}
	}
	if err := tl.FinishRows(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	res.ParseErrs, res.Closed = tl.ParseErrors(), tl.Closed()
	if got := tl.Offset(); got != int64(len(data)) {
		t.Fatalf("offset %d after draining %d bytes", got, len(data))
	}
	return res
}

func diffStream(t *testing.T, data []byte, json, x509 bool, cuts []int) {
	t.Helper()
	want := oracleStream(data, json, x509)
	got := typedStream(t, data, json, x509, cuts)
	if got.ParseErrs != want.ParseErrs || got.Closed != want.Closed || len(got.Events) != len(want.Events) {
		t.Fatalf("stream diverged: typed %d events, %d parse errors, closed=%v; legacy %d, %d, %v\ncuts %v\ndata:\n%q",
			len(got.Events), got.ParseErrs, got.Closed, len(want.Events), want.ParseErrs, want.Closed, cuts, data)
	}
	for i := range want.Events {
		if !reflect.DeepEqual(got.Events[i], want.Events[i]) {
			t.Fatalf("event %d diverged:\nlegacy: %+v\ntyped:  %+v\ncuts %v\ndata:\n%q", i, want.Events[i], got.Events[i], cuts, data)
		}
	}
}

// streamSeed is one fuzz seed: a log's bytes, its kind, and the chunk sizes
// the cut points derive from.
type streamSeed struct {
	data       string
	json, x509 bool
	chunks     []byte
}

func streamSeeds() []streamSeed {
	var seeds []streamSeed
	// Every batch differential seed, ssl and x509 side, fed in small chunks.
	for _, c := range tsvSeedCases {
		seeds = append(seeds, streamSeed{c[0], false, false, []byte{40, 7}}, streamSeed{c[1], false, true, []byte{90}})
	}
	for _, c := range jsonSeedCases {
		seeds = append(seeds, streamSeed{c[0], true, false, []byte{33, 33}}, streamSeed{c[1], true, true, []byte{20}})
	}
	return append(seeds,
		// Cut mid-directive, then mid-escape (inside \x2d), then mid-line.
		streamSeed{tsvSSLHeader + "1.5\tCu2\t-\t-\t(empty)\t0\t-\t-\t\\x2d\tT\tF\tFa1,Fa2\n" + tsvSeedSSLRow, false, false, []byte{5, byte(len(tsvSSLHeader) + 32 - 6), 9}},
		// CRLF line ends, a blank line, and an unterminated final record.
		streamSeed{strings.ReplaceAll(tsvSSLHeader+tsvSeedSSLRow+"\n", "\n", "\r\n") + strings.TrimSuffix(tsvSeedSSLRow, "\n"), false, false, []byte{200, 1, 1}},
		// #fields changes mid-file: columns reorder, one disappears; then #close, #open.
		streamSeed{tsvSSLHeader + tsvSeedSSLRow + "#fields\tuid\tts\tid.resp_p\n" + "Cu9\t9.5\t8443\n" + "#close\t2020-01-01-00-00-00\nCu10\t10.5\t1\n#open\t2020-01-01-00-00-01\n", false, false, []byte{250, 30}},
		// The same for x509, with a malformed line and a bad DN between good rows.
		streamSeed{tsvX509Header + tsvSeedX509Row + "short\tline\n" + strings.Replace(tsvSeedX509Row, "CN=Inter CA", "no-equals-sign", 1) + "#fields\tid\tts\n" + "Fz\t3.25\n", false, true, []byte{255, 255, 4}},
		// ND-JSON: fast lines around every fallback reason, cut inside a string.
		streamSeed{jsonSSLRow + `{"ts":3,"uid":"Cu3","server_name":"a\\b"}` + "\n" + `{"ts":4,"uid":"Cu4","nested":{"a":1}}` + "\n" + `{"ts":` + "\n" + jsonSSLRow, true, false, []byte{100, 255, 12}},
		streamSeed{jsonX509Row + `{"ts":7,"id":"F\t7","certificate.subject":"CN=x"}` + "\r\n\r\n" + `{"id":"Fnots"}` + "\n" + `[1,2]` + "\n" + strings.TrimSuffix(jsonX509Row, "\n"), true, true, []byte{255, 200}},
	)
}

// cutPoints turns fuzzed chunk sizes into ascending byte offsets.
func cutPoints(chunks []byte) []int {
	cuts := make([]int, 0, len(chunks))
	at := 0
	for _, c := range chunks {
		at += int(c) + 1
		cuts = append(cuts, at)
	}
	return cuts
}

func FuzzStreamDecodeEquivalence(f *testing.F) {
	for _, s := range streamSeeds() {
		var kind uint8
		if s.json {
			kind |= 1
		}
		if s.x509 {
			kind |= 2
		}
		f.Add([]byte(s.data), kind, s.chunks)
	}
	f.Fuzz(func(t *testing.T, data []byte, kind uint8, chunks []byte) {
		if len(data) > 1<<16 || len(chunks) > 64 {
			t.Skip("oversized input")
		}
		diffStream(t, data, kind&1 != 0, kind&2 != 0, cutPoints(chunks))
	})
}

// TestStreamDecodeEveryCut replays each seed with a single cut at every byte
// offset, so the wall holds in plain `go test` runs for every way one append
// boundary can fall — mid-line, mid-escape, mid-directive, between \r and \n.
func TestStreamDecodeEveryCut(t *testing.T) {
	for i, s := range streamSeeds() {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			diffStream(t, []byte(s.data), s.json, s.x509, cutPoints(s.chunks))
			for cut := 1; cut < len(s.data); cut++ {
				diffStream(t, []byte(s.data), s.json, s.x509, []int{cut})
			}
		})
	}
}
