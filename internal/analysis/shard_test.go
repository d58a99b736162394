// In-package tests of the sharding machinery: worker normalization and the
// merge property the whole design rests on — any partition of the
// observations into shards, merged in any order, finalizes to the same
// report as the unpartitioned run. laws_test.go fuzzes the same property on
// small inputs.
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

// shardScenario caches one small scenario for the partition property tests
// and the merge laws; fuzzing re-enters its targets thousands of times and
// must not regenerate.
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
		// Lint during the partition property tests too: they and the merge
		// laws then exercise the corpus lint accumulator's contract as well.
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

// TestShardMergeSeeds partitions the whole corpus at FuzzShardMerge's former
// seeds, four cut points each (an index past the end wraps modulo n+1),
// merged forward or backward.
func TestShardMergeSeeds(t *testing.T) {
	s, _ := shardSetup(t)
	n := len(s.Observations)
	for _, tc := range []struct {
		cuts    [4]int
		reverse bool
	}{
		{[4]int{0, 0, 0, 0}, false},
		{[4]int{1, 2, 3, 4}, false},
		{[4]int{400, 800, 1200, 1600}, true},
		{[4]int{1879, 1879, 0, 1}, true},
		{[4]int{937, 941, 65535, 31}, false},
	} {
		cuts := make([]int, 0, len(tc.cuts))
		for _, c := range tc.cuts {
			cuts = append(cuts, c%(n+1))
		}
		sort.Ints(cuts)
		checkPartition(t, cuts, tc.reverse)
	}
}
