// Negative fixture: complete coverage plus every sanctioned exemption.
package fixture

import (
	"encoding/json"
	"sync"
)

type gauge struct {
	mu    sync.Mutex // guard types are exempt automatically
	cfg   *string    //certchain:nomerge shared configuration, never accumulated
	hits  int64
	total int64 //certchain:nosnapshot derived; restoreGauge rebuilds it from hits
}

func (g *gauge) Merge(o *gauge) {
	g.hits += o.hits
	g.total += o.total // mutation marker: drop-merge-total
}

type gaugeSnapshot struct {
	Hits int64
}

func (g *gauge) Snapshot() gaugeSnapshot {
	return gaugeSnapshot{Hits: g.hits}
}

func restoreGauge(s gaugeSnapshot) *gauge {
	return &gauge{hits: s.Hits}
}

// span encodes itself through MarshalJSON/UnmarshalJSON; total is derived.
type span struct {
	lo, hi int64
	total  int64 //certchain:nosnapshot derived; UnmarshalJSON recomputes it
}

func (s *span) Merge(o *span) {
	s.lo = min(s.lo, o.lo)
	s.hi = max(s.hi, o.hi)
	s.total += o.total
}

func (s *span) MarshalJSON() ([]byte, error) { return json.Marshal([2]int64{s.lo, s.hi}) }

func (s *span) UnmarshalJSON(data []byte) error {
	var b [2]int64
	err := json.Unmarshal(data, &b)
	s.lo, s.hi = b[0], b[1]
	return err
}

// tally is its own wire format through json tags; its unexported field is
// configuration.
type tally struct {
	cfg  *string //certchain:nomerge shared configuration, never accumulated
	Seen int64   `json:"seen"`
}

func (t *tally) Merge(o *tally) {
	t.Seen += o.Seen
}
