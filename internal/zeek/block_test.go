package zeek

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"certchains/internal/resilience"
)

// The block pipeline must be invisible: wherever the block boundaries fall
// and however many workers decode, FastJoin/FastJoinJSON deliver what
// Join/JoinJSON do — rows, per-row errors, stream errors and their line
// numbers.

// blocksJoin is the fast join at an explicit block size and worker count.
func blocksJoin(json bool, size, workers int) joinFunc {
	return func(ssl, x509 io.Reader, fn func(*Connection, error) error) error {
		return fastJoinBlocks(json, ssl, x509, fn, size, workers)
	}
}

func legacyJoin(json bool) joinFunc {
	if json {
		return JoinJSON
	}
	return Join
}

// diffBlocks checks one input at every worker count from 1 to 4 at one
// block size.
func diffBlocks(t *testing.T, json bool, ssl, x509 string, size int) {
	t.Helper()
	for workers := 1; workers <= 4; workers++ {
		diffJoins(t, legacyJoin(json), blocksJoin(json, size, workers), ssl, x509)
	}
}

// sweepBlocks checks one input at every block size up to one past the ssl
// stream's length, cycling the worker count.
func sweepBlocks(t *testing.T, json bool, ssl, x509 string) {
	t.Helper()
	for size := 1; size <= len(ssl)+1; size++ {
		diffJoins(t, legacyJoin(json), blocksJoin(json, size, 1+size%4), ssl, x509)
	}
}

func FuzzFastJoinBlockCuts(f *testing.F) {
	for i, c := range tsvSeedCases {
		f.Add(c[0], c[1], false, uint16(1+i*7), uint8(i))
	}
	for i, c := range jsonSeedCases {
		f.Add(c[0], c[1], true, uint16(1+i*11), uint8(i))
	}
	f.Fuzz(func(t *testing.T, ssl, x509 string, json bool, size uint16, workers uint8) {
		if len(ssl)+len(x509) > 1<<16 {
			t.Skip("oversized input")
		}
		diffJoins(t, legacyJoin(json), blocksJoin(json, 1+int(size), 1+int(workers%4)), ssl, x509)
	})
}

// TestFastJoinBlockCutSeeds replays the differential seeds at block sizes
// that put a boundary inside every line.
func TestFastJoinBlockCutSeeds(t *testing.T) {
	for i, c := range tsvSeedCases {
		t.Run(fmt.Sprintf("tsv-%d", i), func(t *testing.T) { sweepBlocks(t, false, c[0], c[1]) })
	}
	for i, c := range jsonSeedCases {
		t.Run(fmt.Sprintf("json-%d", i), func(t *testing.T) { sweepBlocks(t, true, c[0], c[1]) })
	}
}

// TestFastJoinLineLongerThanBlock: a line longer than the block grows the
// block holding it — the shape of the paper's 3,822-certificate chain.
func TestFastJoinLineLongerThanBlock(t *testing.T) {
	fuids := make([]string, 600)
	for i := range fuids {
		fuids[i] = "Fa1"
	}
	long := "1700000002.5\tClong\t10.0.0.3\t1\t10.0.0.2\t443\t-\t-\t-\tF\tT\t" + strings.Join(fuids, ",") + "\n"
	ssl := tsvSSLHeader + tsvSeedSSLRow + long + tsvSeedSSLRow + long
	x509 := tsvX509Header + tsvSeedX509Row
	for _, size := range []int{1, 16, 64, len(long) - 1, len(long), len(long) + 1} {
		diffBlocks(t, false, ssl, x509, size)
	}
	jsonLong := `{"ts":1700000002.5,"uid":"Clong","cert_chain_fuids":["` + strings.Join(fuids, `","`) + `"]}` + "\n"
	diffBlocks(t, true, jsonSSLRow+jsonLong+jsonSSLRow, jsonX509Row, 64)
}

// TestFastJoinConcatenatedHeaderAtBoundary streams two rotated files back to
// back (the TestConcatenatedLogs shape) whose #fields orders differ, with the
// second #fields line first in a block: the block must carry the header in
// effect at its first line.
func TestFastJoinConcatenatedHeaderAtBoundary(t *testing.T) {
	part1 := tsvSSLHeader + tsvSeedSSLRow + "#close\t2023-11-14-22-13-20\n"
	part2 := "#separator \\x09\n#fields\tuid\tts\tid.resp_h\tid.resp_p\tcert_chain_fuids\n" +
		"C2\t1700000005.0\t10.0.0.9\t8443\tFa1\n" + "C3\t1700000006.0\t10.0.0.9\t8443\t-\n"
	ssl := part1 + part2
	x509 := tsvX509Header + tsvSeedX509Row
	at := len(part1) + strings.Index(part2, "#fields")
	for _, size := range []int{at - 1, at, at + 1} {
		diffBlocks(t, false, ssl, x509, size)
	}
	sweepBlocks(t, false, ssl, x509)
}

// TestFastJoinCRLFAndFragments: CRLF terminators split across blocks, an
// unterminated final data line, and a directive fragment at the end.
func TestFastJoinCRLFAndFragments(t *testing.T) {
	crlf := strings.ReplaceAll(tsvSSLHeader+tsvSeedSSLRow+tsvSeedSSLRow, "\n", "\r\n")
	x509 := tsvX509Header + tsvSeedX509Row
	sweepBlocks(t, false, crlf, x509)
	sweepBlocks(t, false, crlf+strings.TrimSuffix(tsvSeedSSLRow, "\n"), x509)
	sweepBlocks(t, false, crlf+"#fiel", x509)
	sweepBlocks(t, false, crlf+"1.0\tCcut\t10.0", x509)
	jsonCRLF := strings.ReplaceAll(jsonSSLRow+jsonSSLRow, "\n", "\r\n")
	sweepBlocks(t, true, jsonCRLF+strings.TrimSuffix(jsonSSLRow, "\n"), jsonX509Row)
	sweepBlocks(t, true, jsonCRLF+`{"ts":`, jsonX509Row)
}

// manyRows is an ssl stream of n seed rows with distinct uids.
func manyRows(n int) string {
	var b strings.Builder
	b.WriteString(tsvSSLHeader)
	for i := range n {
		fmt.Fprintf(&b, "1700000001.25\tC%d\t10.0.0.1\t51234\t10.0.0.2\t443\tTLSv12\t-\texample.edu\tF\tT\tFa1\n", i)
	}
	return b.String()
}

// TestFastJoinFatalBeforeDecodedBlock: a stream error in block k while the
// blocks after it are already decoded. The callback must have seen exactly
// the rows before the bad line, and the error must carry its stream line
// number.
func TestFastJoinFatalBeforeDecodedBlock(t *testing.T) {
	const rows, bad = 200, 120
	lines := strings.SplitAfter(manyRows(rows), "\n")
	header := strings.Count(tsvSSLHeader, "\n")
	lines[header+bad] = "1.0\tonly-two\n"
	ssl, x509 := strings.Join(lines, ""), tsvX509Header+tsvSeedX509Row
	_, want := collectJoin(Join, ssl, x509)
	if want == "" {
		t.Fatal("legacy join accepted the bad line")
	}
	// Give the workers time to decode past the bad line; the assertions
	// below hold however far they got.
	pause := func(seen int64) {
		if seen == 0 {
			time.Sleep(20 * time.Millisecond)
		}
	}
	for workers := 1; workers <= 4; workers++ {
		var seen, grouped int64
		err := fastJoinBlocks(false, strings.NewReader(ssl), strings.NewReader(x509), func(c *Connection, err error) error {
			pause(seen)
			seen++
			return err
		}, 512, workers)
		if err == nil || err.Error() != want {
			t.Fatalf("workers=%d: stream error %v, want %q", workers, err, want)
		}
		err = groupBlocks(false, strings.NewReader(ssl), strings.NewReader(x509), func(g *ConnGroup) error {
			pause(grouped)
			grouped += g.Conns
			return nil
		}, 512, workers)
		if err == nil || err.Error() != want {
			t.Fatalf("workers=%d: grouped stream error %v, want %q", workers, err, want)
		}
		if seen != bad || grouped != bad {
			t.Fatalf("workers=%d: callbacks saw %d rows and %d grouped, want the %d before the bad line", workers, seen, grouped, bad)
		}
	}
}

// settle waits for the goroutine count to fall back to n.
func settle(t *testing.T, n int) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > n; i++ {
		if i == 100 {
			t.Fatalf("%d goroutines left behind", runtime.NumGoroutine()-n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFastJoinAbortLeavesNoGoroutine is TestJoinCallbackAbort on the block
// pipeline, row by row and grouped: the callback's error comes back promptly
// and every goroutine the join started has exited.
func TestFastJoinAbortLeavesNoGoroutine(t *testing.T) {
	ssl, x509 := manyRows(2000), tsvX509Header+tsvSeedX509Row
	before := runtime.NumGoroutine()
	abort := io.ErrUnexpectedEOF
	for workers := 1; workers <= 4; workers++ {
		calls := 0
		err := fastJoinBlocks(false, strings.NewReader(ssl), strings.NewReader(x509), func(*Connection, error) error {
			calls++
			return abort
		}, 256, workers)
		if err != abort || calls != 1 {
			t.Fatalf("workers=%d: got %v after %d calls, want the callback's error after 1", workers, err, calls)
		}
		settle(t, before)
		calls = 0
		err = groupBlocks(false, strings.NewReader(ssl), strings.NewReader(x509), func(*ConnGroup) error {
			calls++
			return abort
		}, 256, workers)
		if err != abort || calls != 1 {
			t.Fatalf("workers=%d: grouped, got %v after %d calls, want the callback's error after 1", workers, err, calls)
		}
		settle(t, before)
	}
}

// TestFastJoinReadFaultLeavesNoGoroutine injects a read error mid-stream
// through the resilience fault reader: a proper prefix of the rows arrives,
// row by row or grouped, the error carries the legacy readers' text, and no
// goroutine is left behind.
func TestFastJoinReadFaultLeavesNoGoroutine(t *testing.T) {
	fault := func(attempt int) *resilience.Plan {
		return resilience.NewPlan(resilience.Fault{Op: "ssl", Attempt: attempt, Kind: resilience.ReadErr})
	}
	tsv, x509 := manyRows(500), tsvX509Header+tsvSeedX509Row
	// The legacy Reader's text for the same fault — its one read of this
	// small stream is the first.
	legacyErr := Join(fault(1).Reader("ssl", strings.NewReader(tsv)), strings.NewReader(x509), func(*Connection, error) error { return nil })
	if legacyErr == nil {
		t.Fatal("legacy join missed the fault")
	}
	injected := errors.Unwrap(legacyErr).Error()
	before := runtime.NumGoroutine()
	for _, json := range []bool{false, true} {
		ssl, want := tsv, "zeek: read: "+injected
		if json {
			ssl, x509, want = strings.Repeat(jsonSSLRow, 500), jsonX509Row, "zeek: json scan: "+injected
		}
		clean, _ := collectJoin(legacyJoin(json), ssl, x509)
		for workers := 1; workers <= 4; workers++ {
			plan := fault(6)
			var got []string
			err := fastJoinBlocks(json, plan.Reader("ssl", strings.NewReader(ssl)), strings.NewReader(x509), func(c *Connection, err error) error {
				got = append(got, c.SSL.UID)
				return err
			}, 1024, workers)
			if err == nil || err.Error() != want || plan.InjectedCount() != 1 {
				t.Fatalf("json=%v workers=%d: stream error %v after %d faults, want %q after 1", json, workers, err, plan.InjectedCount(), want)
			}
			if len(got) == 0 || len(got) >= len(clean) {
				t.Fatalf("json=%v workers=%d: %d rows before the fault, want a proper prefix of %d", json, workers, len(got), len(clean))
			}
			for i, uid := range got {
				if uid != clean[i].SSL.UID {
					t.Fatalf("json=%v workers=%d: row %d is %s, want %s", json, workers, i, uid, clean[i].SSL.UID)
				}
			}
			settle(t, before)

			plan = fault(6)
			var grouped int64
			err = groupBlocks(json, plan.Reader("ssl", strings.NewReader(ssl)), strings.NewReader(x509), func(g *ConnGroup) error {
				grouped += g.Conns
				return nil
			}, 1024, workers)
			if err == nil || err.Error() != want || plan.InjectedCount() != 1 {
				t.Fatalf("json=%v workers=%d: grouped, stream error %v after %d faults, want %q after 1", json, workers, err, plan.InjectedCount(), want)
			}
			if grouped == 0 || grouped >= int64(len(clean)) {
				t.Fatalf("json=%v workers=%d: %d grouped rows before the fault, want a proper prefix of %d", json, workers, grouped, len(clean))
			}
			settle(t, before)
		}
	}
}
