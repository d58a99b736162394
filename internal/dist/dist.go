// Package dist stretches the analysis pipeline's merge contract across
// process boundaries: a coordinator assigns Zeek log partitions to worker
// processes under a lease/heartbeat protocol, pulls each worker's partial
// accumulator state back as versioned canonical-JSON snapshots over HTTP,
// and merges them into the same report a single process would produce.
//
// The equivalence claim has three rungs, and the suite pins all of them
// byte for byte over the same partitioned input:
//
//	1 sequential pass  ≡  N goroutines in one process  ≡  N worker processes
//
// The claim holds because nothing new is invented at this layer: workers
// accumulate through analysis.AccumulateStream exactly as an in-process
// shard would, the shipped state is the same canonical snapshot codec the
// ingest daemon persists, and the coordinator rebases each partition's
// sequence tags by the cumulative observation counts of the partitions
// before it — so the merged outlier list, the only order-sensitive
// artifact, restores global input order exactly. Requeues, duplicate
// deliveries, and worker deaths change only operational metrics, never
// report bytes.
package dist

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"certchains/internal/analysis"
	"certchains/internal/campus"
)

// Partition is one shard of the log corpus: a matching ssl/x509 file pair.
// Index is the partition's position in the global input order — the
// concatenation of partitions in index order defines the observation
// sequence every topology must reproduce.
type Partition struct {
	ID    string `json:"id"`
	Index int    `json:"index"`
	SSL   string `json:"ssl"`
	X509  string `json:"x509"`
}

// sslSuffix and x509Suffix name a partition's file pair: <stem>.ssl.log and
// <stem>.x509.log (transparently gunzipped by the loader if compressed).
const (
	sslSuffix  = ".ssl.log"
	x509Suffix = ".x509.log"
)

// DiscoverPartitions scans dir for <stem>.ssl.log/<stem>.x509.log pairs and
// returns them sorted by stem, indexed in that order. A ssl log without its
// x509 counterpart is an error — silently skipping it would silently shrink
// the corpus.
func DiscoverPartitions(dir string) ([]Partition, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("dist: discover partitions: %w", err)
	}
	var stems []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), sslSuffix) {
			continue
		}
		stems = append(stems, strings.TrimSuffix(e.Name(), sslSuffix))
	}
	sort.Strings(stems)
	parts := make([]Partition, 0, len(stems))
	for i, stem := range stems {
		x5 := filepath.Join(dir, stem+x509Suffix)
		if _, err := os.Stat(x5); err != nil {
			return nil, fmt.Errorf("dist: partition %q has no x509 log: %w", stem, err)
		}
		parts = append(parts, Partition{
			ID:    stem,
			Index: i,
			SSL:   filepath.Join(dir, stem+sslSuffix),
			X509:  x5,
		})
	}
	if len(parts) == 0 {
		return nil, fmt.Errorf("dist: no *%s partitions in %s", sslSuffix, dir)
	}
	return parts, nil
}

// SplitObservations cuts the observation slice into n contiguous partitions
// (the last ones may be one shorter). Aggregation happens per partition, so
// the partitioning is part of the input definition: every topology rung
// consumes the same partition set.
func SplitObservations(obs []*campus.Observation, n int) [][]*campus.Observation {
	if n < 1 {
		n = 1
	}
	out := make([][]*campus.Observation, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := len(obs)*i/n, len(obs)*(i+1)/n
		out = append(out, obs[lo:hi])
	}
	return out
}

// WritePartitions materializes observations as n partition file pairs in
// dir (created if missing) and returns the discovered set. This is the
// fixture generator the smoke test and examples use: the same scenario a
// single-process run analyzes in memory, split into the on-disk corpus the
// distributed topology starts from. A partition in dir that this call would
// not write — left by an earlier, larger run — is an error, since discovery
// would add it to the corpus.
func WritePartitions(obs []*campus.Observation, dir string, n int, format analysis.Format) ([]Partition, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dist: write partitions: %w", err)
	}
	parts := SplitObservations(obs, n)
	partStem := func(i int) string { return fmt.Sprintf("part-%03d", i) }
	written := make(map[string]bool, len(parts))
	for i := range parts {
		written[partStem(i)+sslSuffix] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("dist: write partitions: %w", err)
	}
	var stale []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), sslSuffix) && !written[e.Name()] {
			stale = append(stale, e.Name())
		}
	}
	if len(stale) > 0 {
		return nil, fmt.Errorf("dist: write partitions: %s holds partitions this run does not write: %s", dir, strings.Join(stale, ", "))
	}
	for i, part := range parts {
		stem := partStem(i)
		sslF, err := os.Create(filepath.Join(dir, stem+sslSuffix))
		if err != nil {
			return nil, fmt.Errorf("dist: write partitions: %w", err)
		}
		x5F, err := os.Create(filepath.Join(dir, stem+x509Suffix))
		if err != nil {
			sslF.Close()
			return nil, fmt.Errorf("dist: write partitions: %w", err)
		}
		err = campus.Replay(part, sslF, x5F, campus.ReplayOptions{JSON: format == analysis.FormatJSON})
		if cerr := sslF.Close(); err == nil {
			err = cerr
		}
		if cerr := x5F.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("dist: write partition %s: %w", stem, err)
		}
	}
	return DiscoverPartitions(dir)
}
