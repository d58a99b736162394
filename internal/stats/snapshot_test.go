package stats

import (
	"encoding/json"
	"reflect"
	"testing"
)

// roundTrip encodes v and decodes the bytes into into.
func roundTrip(t *testing.T, v, into any) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, into); err != nil {
		t.Fatal(err)
	}
}

func TestCDFSnapshotRoundTrip(t *testing.T) {
	c := NewCDF()
	c.Add(3, 7)
	c.Add(1, 2)
	c.Add(10, 1)
	c.Add(3, 1)

	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"values":[1,3,10],"counts":[2,8,1]}` {
		t.Fatalf("CDF encodes as %s", data)
	}
	r := new(CDF)
	if err := json.Unmarshal(data, r); err != nil {
		t.Fatal(err)
	}
	if r.Total() != c.Total() {
		t.Fatalf("total = %d, want %d", r.Total(), c.Total())
	}
	if !reflect.DeepEqual(r.Points(), c.Points()) {
		t.Fatalf("points differ: %v vs %v", r.Points(), c.Points())
	}
	// A decoded CDF keeps merging like the original.
	other := NewCDF()
	other.Add(2, 5)
	r.Merge(other)
	c.Merge(other)
	if !reflect.DeepEqual(r.Points(), c.Points()) {
		t.Fatal("decoded CDF merges differently")
	}
	for _, bad := range []string{`{"values":[1,2],"counts":[1]}`, `{"values":[1],"counts":[0]}`} {
		if err := json.Unmarshal([]byte(bad), new(CDF)); err == nil {
			t.Errorf("CDF decoded %s", bad)
		}
	}
}

func TestEmptyCDFSnapshot(t *testing.T) {
	r := new(CDF)
	roundTrip(t, NewCDF(), r)
	if r.Total() != 0 || len(r.Values()) != 0 {
		t.Fatalf("empty round trip: total=%d values=%v", r.Total(), r.Values())
	}
	r.Add(4, 1)
}

func TestHistogramSnapshotRoundTrip(t *testing.T) {
	h := NewHistogram(0, 1, 10)
	for _, v := range []float64{0.05, 0.51, 0.52, 0.99, 1.7, -0.3} {
		h.Add(v)
	}
	r := NewHistogram(0, 1, 10)
	roundTrip(t, h, r)
	if r.Total() != h.Total() {
		t.Fatalf("total = %d, want %d", r.Total(), h.Total())
	}
	if !reflect.DeepEqual(r.Bins, h.Bins) {
		t.Fatalf("bins differ: %v vs %v", r.Bins, h.Bins)
	}
	if r.ShareAbove(0.5) != h.ShareAbove(0.5) {
		t.Fatal("ShareAbove differs after round trip")
	}
	// Decoded histograms stay mergeable with live ones.
	live := NewHistogram(0, 1, 10)
	live.Add(0.4)
	r.Merge(live)
	h.Merge(live)
	if !reflect.DeepEqual(r.Bins, h.Bins) || r.Total() != h.Total() {
		t.Fatal("decoded histogram merges differently")
	}
	// Both bounds travel: a histogram below zero round-trips too.
	neg, back := NewHistogram(-1, 1, 4), NewHistogram(-1, 1, 4)
	neg.Add(-0.9)
	roundTrip(t, neg, back)
	if !reflect.DeepEqual(back.Bins, neg.Bins) {
		t.Fatalf("bins of [-1, 1] differ: %v vs %v", back.Bins, neg.Bins)
	}
	// A histogram decodes only its own shape.
	for _, bad := range []string{
		`{"lo":-1,"hi":1,"bins":[0,0,0,0,0,0,0,0,0,0]}`,
		`{"lo":0,"hi":1,"bins":[]}`,
		`{"lo":0,"hi":1,"bins":[0,0]}`,
		`{"lo":0,"hi":0,"bins":[0,0,0,0,0,0,0,0,0,0]}`,
	} {
		if err := json.Unmarshal([]byte(bad), NewHistogram(0, 1, 10)); err == nil {
			t.Errorf("histogram [0, 1] with 10 bins decoded %s", bad)
		}
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
