package stats

import (
	"encoding/json"
	"fmt"
	"slices"
)

// JSON forms: the analysis state codecs marshal the live accumulators, so
// the mergeable structures encode themselves in a stable form whose round
// trip reproduces them exactly. Decoded accumulators must keep merging and
// rendering byte-identically to never-encoded ones — the window-ring
// equivalence suite enforces this.

// cdfJSON is the wire form of a CDF: parallel value/count slices sorted by
// value, so the encoding is deterministic.
type cdfJSON struct {
	Values []int   `json:"values,omitempty"`
	Counts []int64 `json:"counts,omitempty"`
}

// MarshalJSON encodes the distribution as sorted values and their counts.
func (c *CDF) MarshalJSON() ([]byte, error) {
	s := cdfJSON{Values: c.Values()}
	s.Counts = make([]int64, len(s.Values))
	for i, v := range s.Values {
		s.Counts[i] = c.counts[v]
	}
	return json.Marshal(s)
}

// UnmarshalJSON replaces the distribution with a decoded one. Every value
// needs a positive count: the encoder writes no other, and anything else
// would silently lose points.
func (c *CDF) UnmarshalJSON(data []byte) error {
	var s cdfJSON
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	if len(s.Counts) != len(s.Values) {
		return fmt.Errorf("stats: cdf has %d values but %d counts", len(s.Values), len(s.Counts))
	}
	*c = *NewCDF()
	for i, v := range s.Values {
		if s.Counts[i] <= 0 {
			return fmt.Errorf("stats: cdf value %d has count %d", v, s.Counts[i])
		}
		c.Add(v, s.Counts[i])
	}
	return nil
}

// histogramJSON is the wire form of a Histogram; the total is recomputed
// from the bins on decode (Add and Merge keep them consistent).
type histogramJSON struct {
	Lo   float64 `json:"lo"`
	Hi   float64 `json:"hi"`
	Bins []int64 `json:"bins"`
}

// MarshalJSON encodes the bounds and bins.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	return json.Marshal(histogramJSON{Lo: h.Lo, Hi: h.Hi, Bins: h.Bins})
}

// UnmarshalJSON decodes bins into the histogram's own shape: the encoded
// bounds and bin count must equal the receiver's, so a decoded histogram
// always merges with the ones it was built beside.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var s histogramJSON
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	if s.Lo != h.Lo || s.Hi != h.Hi || len(s.Bins) != len(h.Bins) {
		return fmt.Errorf("stats: histogram [%g, %g] with %d bins, want [%g, %g] with %d",
			s.Lo, s.Hi, len(s.Bins), h.Lo, h.Hi, len(h.Bins))
	}
	copy(h.Bins, s.Bins)
	h.total = 0
	for _, n := range s.Bins {
		h.total += n
	}
	return nil
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
