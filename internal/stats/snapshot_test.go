package stats

import (
	"encoding/json"
	"reflect"
	"testing"
)

func TestCDFSnapshotRoundTrip(t *testing.T) {
	c := NewCDF()
	c.Add(3, 7)
	c.Add(1, 2)
	c.Add(10, 1)
	c.Add(3, 1)

	data, err := json.Marshal(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap CDFSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	r := CDFFromSnapshot(snap)
	if r.Total() != c.Total() {
		t.Fatalf("total = %d, want %d", r.Total(), c.Total())
	}
	if !reflect.DeepEqual(r.Points(), c.Points()) {
		t.Fatalf("points differ: %v vs %v", r.Points(), c.Points())
	}
	// A restored CDF keeps merging like the original.
	other := NewCDF()
	other.Add(2, 5)
	a, b := CDFFromSnapshot(c.Snapshot()), CDFFromSnapshot(c.Snapshot())
	a.Merge(other)
	c.Merge(other)
	if !reflect.DeepEqual(a.Points(), c.Points()) {
		t.Fatal("restored CDF merges differently")
	}
	_ = b
}

func TestEmptyCDFSnapshot(t *testing.T) {
	r := CDFFromSnapshot(NewCDF().Snapshot())
	if r.Total() != 0 || len(r.Values()) != 0 {
		t.Fatalf("empty round trip: total=%d values=%v", r.Total(), r.Values())
	}
}

func TestHistogramSnapshotRoundTrip(t *testing.T) {
	h := NewHistogram(0, 1, 10)
	for _, v := range []float64{0.05, 0.51, 0.52, 0.99, 1.7, -0.3} {
		h.Add(v)
	}
	data, err := json.Marshal(h.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap HistogramSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	r := HistogramFromSnapshot(snap)
	if r.Total() != h.Total() {
		t.Fatalf("total = %d, want %d", r.Total(), h.Total())
	}
	if !reflect.DeepEqual(r.Bins, h.Bins) {
		t.Fatalf("bins differ: %v vs %v", r.Bins, h.Bins)
	}
	if r.ShareAbove(0.5) != h.ShareAbove(0.5) {
		t.Fatal("ShareAbove differs after round trip")
	}
	// Restored histograms stay mergeable with live ones.
	live := NewHistogram(0, 1, 10)
	live.Add(0.4)
	r.Merge(live)
	h.Merge(live)
	if !reflect.DeepEqual(r.Bins, h.Bins) || r.Total() != h.Total() {
		t.Fatal("restored histogram merges differently")
	}
}

func TestSetRoundTrip(t *testing.T) {
	data, err := json.Marshal(Set[string]{"b": true, "a": true, "c": true})
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `["a","b","c"]` {
		t.Fatalf("Set encodes as %s, want sorted members", data)
	}
	var back Set[string]
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, Set[string]{"a": true, "b": true, "c": true}) {
		t.Fatalf("round trip = %v", back)
	}
	for _, empty := range []Set[string]{nil, {}} {
		if data, _ := json.Marshal(empty); string(data) != "null" {
			t.Fatalf("empty Set encodes as %s, want null", data)
		}
	}
	// null — inside a family too — decodes to a set that takes members.
	var fam Sets[string, string]
	if err := json.Unmarshal([]byte(`{"k":null}`), &fam); err != nil {
		t.Fatal(err)
	}
	fam["k"]["x"] = true
	var top struct{ S Set[string] }
	if err := json.Unmarshal([]byte(`{"S":null}`), &top); err != nil {
		t.Fatal(err)
	}
	top.S["x"] = true
}

func TestSetsUnionCopies(t *testing.T) {
	src := Sets[int, string]{}
	src.Add(1, "a", "b")
	dst := Sets[int, string]{}
	dst.Add(1, "c")
	other := Sets[int, string]{2: {"d": true}}
	dst.Union(src)
	dst.Union(other)
	want := Sets[int, string]{1: {"a": true, "b": true, "c": true}, 2: {"d": true}}
	if !reflect.DeepEqual(dst, want) {
		t.Fatalf("union = %v, want %v", dst, want)
	}
	dst[2]["z"] = true
	if other[2]["z"] {
		t.Fatal("Union shared the source's set")
	}
}
