package stats

import (
	"math"
	"testing"
)

// TestCDFMerge checks sharded accumulation equals a single pass.
func TestCDFMerge(t *testing.T) {
	whole := NewCDF()
	a, b := NewCDF(), NewCDF()
	samples := []struct {
		v int
		n int64
	}{{1, 5}, {2, 3}, {2, 2}, {7, 1}, {3, 10}, {1, 4}}
	for i, s := range samples {
		whole.Add(s.v, s.n)
		if i%2 == 0 {
			a.Add(s.v, s.n)
		} else {
			b.Add(s.v, s.n)
		}
	}
	// Merge in both orders; both must equal the single pass.
	ab := NewCDF()
	ab.Merge(a)
	ab.Merge(b)
	ba := NewCDF()
	ba.Merge(b)
	ba.Merge(a)
	for _, m := range []*CDF{ab, ba} {
		if m.Total() != whole.Total() {
			t.Fatalf("merged total = %d, want %d", m.Total(), whole.Total())
		}
		for _, v := range whole.Values() {
			if m.Share(v) != whole.Share(v) {
				t.Errorf("merged share(%d) = %v, want %v", v, m.Share(v), whole.Share(v))
			}
			if m.At(v) != whole.At(v) {
				t.Errorf("merged at(%d) = %v, want %v", v, m.At(v), whole.At(v))
			}
		}
	}
	// Merging nil is an identity.
	ab.Merge(nil)
	if ab.Total() != whole.Total() {
		t.Error("nil merge changed the distribution")
	}
}

// TestHistogramMerge checks bin-wise addition and the shape guard.
func TestHistogramMerge(t *testing.T) {
	whole := NewHistogram(0, 1, 10)
	a, b := NewHistogram(0, 1, 10), NewHistogram(0, 1, 10)
	for i := 0; i < 100; i++ {
		v := float64(i) / 100
		whole.Add(v)
		if i%3 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
	}
	a.Merge(b)
	a.Merge(nil)
	if a.Total() != whole.Total() {
		t.Fatalf("merged total = %d, want %d", a.Total(), whole.Total())
	}
	for _, th := range []float64{0.0, 0.25, 0.4, 0.9} {
		if got, want := a.ShareAbove(th), whole.ShareAbove(th); math.Abs(got-want) > 1e-12 {
			t.Errorf("merged ShareAbove(%v) = %v, want %v", th, got, want)
		}
	}

	for _, other := range []*Histogram{NewHistogram(-1, 1, 10), NewHistogram(0, 2, 10), NewHistogram(0, 1, 5)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("merging [0, 1]/10 with [%g, %g]/%d did not panic", other.Lo, other.Hi, len(other.Bins))
				}
			}()
			a.Merge(other)
		}()
	}
}
