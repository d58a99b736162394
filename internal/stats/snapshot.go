package stats

import (
	"encoding/json"
	"slices"
)

// Snapshot support: the ingest daemon persists accumulator state across
// restarts, so the mergeable structures need a stable, JSON-friendly
// serialized form whose round trip reproduces the accumulator exactly.
// Restored accumulators must keep merging and rendering byte-identically to
// never-snapshotted ones — the window-ring equivalence suite enforces this.

// CDFSnapshot is the serialized form of a CDF: parallel value/count slices
// sorted by value, so the encoding is deterministic.
type CDFSnapshot struct {
	Values []int   `json:"values,omitempty"`
	Counts []int64 `json:"counts,omitempty"`
}

// Snapshot serializes the distribution.
func (c *CDF) Snapshot() CDFSnapshot {
	values := c.Values()
	counts := make([]int64, len(values))
	for i, v := range values {
		counts[i] = c.counts[v]
	}
	return CDFSnapshot{Values: values, Counts: counts}
}

// CDFFromSnapshot rebuilds a distribution from its serialized form.
func CDFFromSnapshot(s CDFSnapshot) *CDF {
	c := NewCDF()
	for i, v := range s.Values {
		if i < len(s.Counts) {
			c.Add(v, s.Counts[i])
		}
	}
	return c
}

// HistogramSnapshot is the serialized form of a Histogram. The total is
// recomputed from the bins on restore (Add and Merge keep them consistent).
type HistogramSnapshot struct {
	Lo   float64 `json:"lo"`
	Hi   float64 `json:"hi"`
	Bins []int64 `json:"bins"`
}

// Snapshot serializes the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	return HistogramSnapshot{Lo: h.Lo, Hi: h.Hi, Bins: append([]int64(nil), h.Bins...)}
}

// HistogramFromSnapshot rebuilds a histogram from its serialized form.
func HistogramFromSnapshot(s HistogramSnapshot) *Histogram {
	h := NewHistogram(s.Lo, s.Hi, len(s.Bins))
	copy(h.Bins, s.Bins)
	for _, n := range s.Bins {
		h.total += n
	}
	return h
}

// Set is a set of strings whose JSON form — the canonical set encoding of
// every snapshot codec — is its members in sorted order. An empty set
// encodes as null, and null decodes into an empty, writable set.
type Set[E ~string] map[E]bool

// Union adds every member of o.
func (s Set[E]) Union(o Set[E]) {
	for e := range o {
		s[e] = true
	}
}

// MarshalJSON encodes the sorted members.
func (s Set[E]) MarshalJSON() ([]byte, error) {
	if len(s) == 0 {
		return []byte("null"), nil
	}
	members := make([]E, 0, len(s))
	for e := range s {
		members = append(members, e)
	}
	slices.Sort(members)
	return json.Marshal(members)
}

// UnmarshalJSON decodes a member list (or null) into a fresh set.
func (s *Set[E]) UnmarshalJSON(data []byte) error {
	var members []E
	if err := json.Unmarshal(data, &members); err != nil {
		return err
	}
	*s = make(Set[E], len(members))
	for _, e := range members {
		(*s)[e] = true
	}
	return nil
}

// Sets is a keyed family of sets, merged by per-key union.
type Sets[K comparable, E ~string] map[K]Set[E]

// Add adds members to k's set, creating it on first use.
func (s Sets[K, E]) Add(k K, members ...E) {
	set := s[k]
	if set == nil {
		set = make(Set[E])
		s[k] = set
	}
	for _, e := range members {
		set[e] = true
	}
}

// Union adds every member of every set of o; o's sets are copied, never
// shared.
func (s Sets[K, E]) Union(o Sets[K, E]) {
	for k, set := range o {
		dst := s[k]
		if dst == nil {
			dst = make(Set[E], len(set))
			s[k] = dst
		}
		dst.Union(set)
	}
}
