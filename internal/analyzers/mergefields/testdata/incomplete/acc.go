// Positive fixture: a Merge body and snapshot codecs that drop fields.
package fixture

import "encoding/json"

type counter struct {
	hits   int64
	misses int64
	errs   int64   // dropped by Merge and by the codec: two findings
	label  *string // dropped as well: two findings
	skip   int64   //certchain:nomerge
}

func (c *counter) Merge(o *counter) {
	c.hits += o.hits
	c.misses += o.misses
}

type counterSnapshot struct {
	Hits   int64
	Misses int64
}

func (c *counter) Snapshot() counterSnapshot {
	return counterSnapshot{Hits: c.hits, Misses: c.misses}
}

func restoreCounter(s counterSnapshot) *counter {
	return &counter{hits: s.Hits, misses: s.Misses}
}

// histo encodes itself through MarshalJSON/UnmarshalJSON, and the pair
// forgets a field.
type histo struct {
	bins  []int64
	total int64 // dropped by the JSON pair: one finding
}

func (h *histo) Merge(o *histo) {
	h.bins = append(h.bins, o.bins...)
	h.total += o.total
}

func (h *histo) MarshalJSON() ([]byte, error) { return json.Marshal(h.bins) }

func (h *histo) UnmarshalJSON(data []byte) error { return json.Unmarshal(data, &h.bins) }

// tally is its own wire format through json tags, and one field is
// unexported.
type tally struct {
	Seen  int64 `json:"seen"`
	extra int64 // invisible to encoding/json: one finding
}

func (t *tally) Merge(o *tally) {
	t.Seen += o.Seen
	t.extra += o.extra
}
