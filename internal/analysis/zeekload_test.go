package analysis_test

import (
	"bytes"
	"runtime"
	"testing"

	"certchains/internal/analysis"
	"certchains/internal/campus"
)

// TestFastJoinPassAllocs is the allocation ratchet on the block-parallel
// batch decode: a warm LoadFormatFunc over generated TSV (256 rows per
// observation) at several decode workers allocates, per row, within 1 % of
// the one-worker pass, and its extra bytes — the blocks in flight and their
// rows — stay a fixed amount whatever the corpus size. Per-worker interners
// or per-row copies grow with the rows and fail it.
func TestFastJoinPassAllocs(t *testing.T) {
	const workers, maxExtraBytes = 4, 3 << 19 // 1.5 MiB
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
		t.Logf("%d observations, %.0f rows: %.4f → %.4f allocs/row, %+d bytes at %d workers",
			n, rows, float64(a1)/rows, float64(aN)/rows, int64(bN)-int64(b1), workers)
		if float64(aN) > 1.01*float64(a1) {
			t.Errorf("%d observations: %.4f allocs/row at %d workers, one worker %.4f (+1 %% allowed)",
				n, float64(aN)/rows, workers, float64(a1)/rows)
		}
		if extra := int64(bN) - int64(b1); extra > maxExtraBytes {
			t.Errorf("%d observations: %d workers allocate %d bytes more than one, budget %d", n, workers, extra, maxExtraBytes)
		}
	}
}
