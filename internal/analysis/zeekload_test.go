package analysis_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"certchains/internal/analysis"
	"certchains/internal/campus"
	"certchains/internal/zeek"
)

// separatorLogs are TSV logs of three connections on port 443 whose
// identities share the '|'-joined key AppendConnKey once built: chain
// [x|y] and chain [x, y] at 10.0.0.2, and chain [x] at "y|10.0.0.2".
func separatorLogs(t *testing.T) (ssl, x509 []byte) {
	t.Helper()
	now := time.Unix(1700000000, 0).UTC()
	var sslBuf, x509Buf bytes.Buffer
	xw := zeek.NewLogWriter(false, io.Discard, &x509Buf, now)
	for _, id := range []string{"x|y", "x", "y"} {
		if err := xw.WriteX509(&zeek.X509Record{TS: now, ID: id, Subject: "CN=" + id, Issuer: "CN=Root"}); err != nil {
			t.Fatal(err)
		}
	}
	sw := zeek.NewLogWriter(false, &sslBuf, io.Discard, now)
	for i, c := range []struct {
		fuids  []string
		server string
	}{{[]string{"x|y"}, "10.0.0.2"}, {[]string{"x", "y"}, "10.0.0.2"}, {[]string{"x"}, "y|10.0.0.2"}} {
		err := sw.WriteSSL(&zeek.SSLRecord{TS: now.Add(time.Duration(i) * time.Second), UID: fmt.Sprintf("C%d", i),
			OrigH: "10.1.0.1", RespH: c.server, RespP: 443, Established: true, CertChainFUIDs: c.fuids})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := xw.Close(now); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(now.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	return sslBuf.Bytes(), x509Buf.Bytes()
}

// TestAppendConnKeyUnambiguous: identities whose fingerprints or server
// address hold the key's separator stay apart — in the batch load, and
// under AppendConnKey, the key the daemon folds by.
func TestAppendConnKeyUnambiguous(t *testing.T) {
	ssl, x509 := separatorLogs(t)
	obs, err := analysis.LoadFormat(analysis.FormatTSV, bytes.NewReader(ssl), bytes.NewReader(x509))
	if err != nil {
		t.Fatal(err)
	}
	keys := make(map[string]bool)
	for _, o := range obs {
		if o.Conns != 1 {
			t.Errorf("chain %s at %s: %d connections, want 1", o.Chain.Key(), o.ServerIP, o.Conns)
		}
		keys[string(analysis.AppendConnKey(nil, o.Chain, o.ServerIP, o.Port))] = true
	}
	if len(obs) != 3 || len(keys) != 3 {
		t.Fatalf("%d observations under %d keys, want 3 under 3", len(obs), len(keys))
	}
}

// TestFastJoinPassAllocs is the allocation ratchet on the block-parallel,
// grouped batch load: a warm LoadFormatFunc over generated TSV (256 rows per
// observation) allocates at most 0.35 times per row at one decode worker.
// Each added worker costs a fixed number of allocations (its decoder, group
// table and block, with the block's rows and groups), and the extra bytes
// at four workers stay a fixed amount, whatever the corpus size. Per-worker
// interners or per-row copies grow with the rows and fail it.
func TestFastJoinPassAllocs(t *testing.T) {
	const (
		workers          = 4
		maxAllocsPerRow  = 0.35
		maxAllocsPerWork = 40      // per added worker
		maxExtraBytes    = 3 << 19 // 1.5 MiB
	)
	s := generate(t, 1)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, n := range []int{100, 400} {
		var ssl, x509 bytes.Buffer
		if err := analysis.Write(s.Observations[:n], &ssl, &x509, analysis.WriteOptions{MaxConnsPerObservation: 256}); err != nil {
			t.Fatal(err)
		}
		rows := float64(bytes.Count(ssl.Bytes(), []byte{'\n'}))
		pass := func(procs int) (allocs, alloced uint64) {
			runtime.GOMAXPROCS(procs)
			load := func() {
				err := analysis.LoadFormatFunc(analysis.FormatTSV, bytes.NewReader(ssl.Bytes()), bytes.NewReader(x509.Bytes()),
					func(*campus.Observation) error { return nil })
				if err != nil {
					t.Fatal(err)
				}
			}
			load() // warm
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			load()
			runtime.ReadMemStats(&m1)
			return m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc
		}
		a1, b1 := pass(1)
		aN, bN := pass(workers)
		t.Logf("%d observations, %.0f rows: %.4f → %.4f allocs/row, %+d allocs and %+d bytes at %d workers",
			n, rows, float64(a1)/rows, float64(aN)/rows, int64(aN)-int64(a1), int64(bN)-int64(b1), workers)
		if perRow := float64(a1) / rows; perRow > maxAllocsPerRow {
			t.Errorf("%d observations: %.4f allocs/row at one worker, budget %.2f", n, perRow, maxAllocsPerRow)
		}
		if extra := int64(aN) - int64(a1); extra > maxAllocsPerWork*(workers-1) {
			t.Errorf("%d observations: %d workers allocate %d times more than one, budget %d per added worker", n, workers, extra, maxAllocsPerWork)
		}
		if extra := int64(bN) - int64(b1); extra > maxExtraBytes {
			t.Errorf("%d observations: %d workers allocate %d bytes more than one, budget %d", n, workers, extra, maxExtraBytes)
		}
	}
}

// TestLogBytesMatchInMemory pins the identity the paper checks rest on: a
// scenario written as full-volume Zeek logs (one ssl.log row per
// connection), loaded back and run reports byte for byte what its in-memory
// observations report, in both log formats.
func TestLogBytesMatchInMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("full-volume zeek round-trip is not short-mode work")
	}
	cfg := campus.DefaultConfig()
	cfg.Seed = 1
	cfg.Scale = 0.0005
	s, err := campus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := analysis.FromScenario(s)
	wantText, wantJSON := renderings(t, p.Run(s.Observations))

	for _, name := range []string{"tsv", "json"} {
		format, err := analysis.ParseFormat(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			sslPath, x509Path := filepath.Join(dir, "ssl.log"), filepath.Join(dir, "x509.log")
			writeLogs(t, s.Observations, sslPath, x509Path, format)
			sslF, err := os.Open(sslPath)
			if err != nil {
				t.Fatal(err)
			}
			defer sslF.Close()
			x509F, err := os.Open(x509Path)
			if err != nil {
				t.Fatal(err)
			}
			defer x509F.Close()
			observations, err := analysis.LoadFormat(format, sslF, x509F)
			if err != nil {
				t.Fatal(err)
			}
			text, js := renderings(t, p.Run(observations))
			if text != wantText {
				t.Error("report from log bytes differs from the in-memory report")
			}
			if !bytes.Equal(js, wantJSON) {
				t.Error("JSON export from log bytes differs from the in-memory export")
			}
		})
	}
}

// writeLogs writes observations as uncapped Zeek logs to the two paths.
func writeLogs(t *testing.T, observations []*campus.Observation, sslPath, x509Path string, format analysis.Format) {
	t.Helper()
	sslF, err := os.Create(sslPath)
	if err != nil {
		t.Fatal(err)
	}
	x509F, err := os.Create(x509Path)
	if err != nil {
		t.Fatal(err)
	}
	sslW, x509W := bufio.NewWriter(sslF), bufio.NewWriter(x509F)
	if err := analysis.Write(observations, sslW, x509W, analysis.WriteOptions{Format: format}); err != nil {
		t.Fatal(err)
	}
	for _, err := range []error{sslW.Flush(), x509W.Flush(), sslF.Close(), x509F.Close()} {
		if err != nil {
			t.Fatal(err)
		}
	}
}
