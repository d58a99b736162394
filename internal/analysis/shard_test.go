// In-package tests of the sharding machinery: worker normalization and the
// merge property the whole design rests on — any partition of the
// observations into shards, merged in any order, finalizes to the same
// report as the unpartitioned run.
package analysis

import (
	"bytes"
	"runtime"
	"sort"
	"sync"
	"testing"

	"certchains/internal/campus"
	"certchains/internal/lint"
)

func TestNormalizeWorkers(t *testing.T) {
	gmp := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ workers, want int }{
		{0, gmp},
		{-3, gmp},
		{1, 1},
		{4, 4},
		{64, 64}, // no clamp to the input size: surplus workers fold nothing
	} {
		if got := normalizeWorkers(tc.workers); got != tc.want {
			t.Errorf("normalizeWorkers(%d) = %d, want %d", tc.workers, got, tc.want)
		}
	}
}

// shardScenario caches one small scenario for the partition property tests;
// fuzzing re-enters the target thousands of times and must not regenerate.
var (
	shardOnce sync.Once
	shardScen *campus.Scenario
	shardPipe *Pipeline
	shardText string
	shardJSON []byte
)

func shardSetup(tb testing.TB) (*campus.Scenario, *Pipeline) {
	tb.Helper()
	shardOnce.Do(func() {
		cfg := campus.DefaultConfig()
		cfg.Scale = 0.002
		s, err := campus.Generate(cfg)
		if err != nil {
			panic(err)
		}
		shardScen = s
		shardPipe = FromScenario(s)
		// Lint during the partition property tests too: the fuzz target then
		// exercises the corpus lint accumulator's merge contract as well.
		shardPipe.Linter = lint.New(s.Classifier, lint.Config{Now: s.End(), Profile: lint.ProfileAll})
		base := shardPipe.RunParallel(s.Observations, 1)
		shardText = base.Render()
		shardJSON, err = base.JSON()
		if err != nil {
			panic(err)
		}
	})
	return shardScen, shardPipe
}

// runPartitioned shards the observations at the given sorted cut points,
// accumulates each shard into its own partial, merges them in the order
// given by reverse, and finalizes.
func runPartitioned(s *campus.Scenario, p *Pipeline, cuts []int, reverse bool) *Report {
	bounds := append([]int{0}, cuts...)
	bounds = append(bounds, len(s.Observations))
	var partials []*partialReport
	for i := 0; i+1 < len(bounds); i++ {
		pr := p.newPartial()
		for j := bounds[i]; j < bounds[i+1]; j++ {
			pr.observe(j, s.Observations[j])
		}
		partials = append(partials, pr)
	}
	if reverse {
		for i, j := 0, len(partials)-1; i < j; i, j = i+1, j-1 {
			partials[i], partials[j] = partials[j], partials[i]
		}
	}
	merged := partials[0]
	for _, pr := range partials[1:] {
		merged.merge(pr)
	}
	return merged.finalize()
}

// checkPartition asserts a partitioned run reproduces the unpartitioned
// baseline byte for byte.
func checkPartition(t *testing.T, cuts []int, reverse bool) {
	t.Helper()
	s, p := shardSetup(t)
	r := runPartitioned(s, p, cuts, reverse)
	if text := r.Render(); text != shardText {
		t.Errorf("cuts=%v reverse=%v: rendered report differs from unpartitioned run", cuts, reverse)
	}
	js, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js, shardJSON) {
		t.Errorf("cuts=%v reverse=%v: JSON export differs from unpartitioned run", cuts, reverse)
	}
}

// TestMergeOrderIndependence pins the commutativity claim directly: the same
// shards merged forward and backward give identical reports.
func TestMergeOrderIndependence(t *testing.T) {
	s, _ := shardSetup(t)
	n := len(s.Observations)
	cuts := []int{n / 5, n / 3, n / 2, 2 * n / 3}
	checkPartition(t, cuts, false)
	checkPartition(t, cuts, true)
}

// TestDegeneratePartitions covers empty shards: cut points at the ends and
// repeated cuts produce zero-length shards, which must merge as identities.
func TestDegeneratePartitions(t *testing.T) {
	s, _ := shardSetup(t)
	n := len(s.Observations)
	checkPartition(t, []int{0, 0, n, n}, false)
	checkPartition(t, []int{n / 2, n / 2}, true)
}

// FuzzShardMerge is the property test the issue asks for: interpret four
// fuzzed values as shard boundaries over the fixed observation set and
// require the merged partials to equal the unpartitioned run.
func FuzzShardMerge(f *testing.F) {
	f.Add(uint16(0), uint16(0), uint16(0), uint16(0), false)
	f.Add(uint16(1), uint16(2), uint16(3), uint16(4), false)
	f.Add(uint16(400), uint16(800), uint16(1200), uint16(1600), true)
	f.Add(uint16(1879), uint16(1879), uint16(0), uint16(1), true)
	f.Add(uint16(937), uint16(941), uint16(65535), uint16(31), false)
	f.Fuzz(func(t *testing.T, a, b, c, d uint16, reverse bool) {
		s, _ := shardSetup(t)
		n := len(s.Observations)
		cuts := []int{int(a) % (n + 1), int(b) % (n + 1), int(c) % (n + 1), int(d) % (n + 1)}
		sort.Ints(cuts)
		checkPartition(t, cuts, reverse)
	})
}
