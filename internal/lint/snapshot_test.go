package lint

import (
	"encoding/json"
	"reflect"
	"testing"
)

func TestCorpusSnapshotRoundTrip(t *testing.T) {
	l := testLinter(t)
	c := NewCorpusReport(l)
	for i, ch := range corpusChains() {
		c.Observe(ch, int64(10*(i+1)))
	}

	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	r := NewCorpusReport(l)
	if err := json.Unmarshal(data, r); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Summarize(), c.Summarize()) {
		t.Fatal("summary differs after round trip")
	}

	// A restored accumulator keeps observing and merging like the original:
	// re-observing a restored chain must hit the chain-key cache, and fresh
	// chains must fold in identically.
	chains := corpusChains()
	r.Observe(chains[0], 5)
	c.Observe(chains[0], 5)
	other := NewCorpusReport(l)
	other.Observe(chains[2], 7)
	r.Merge(other)
	c.Merge(other)
	if !reflect.DeepEqual(r.Summarize(), c.Summarize()) {
		t.Fatal("restored accumulator diverges after further observations")
	}
	// Equal accumulators must serialize identically (JSON map keys are
	// sorted), which the on-disk ring codec relies on.
	a, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("snapshot encoding not canonical")
	}
}

func TestCorpusSnapshotEmpty(t *testing.T) {
	l := testLinter(t)
	data, err := json.Marshal(NewCorpusReport(l))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"observations":0,"conns":0}` {
		t.Fatalf("empty accumulator encodes as %s", data)
	}
	r := NewCorpusReport(l)
	if err := json.Unmarshal(data, r); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Summarize(), NewCorpusReport(l).Summarize()) {
		t.Fatal("empty encoding should decode to an empty accumulator")
	}
	r.Observe(corpusChains()[0], 1)
}
