package ingest

import (
	"reflect"
	"testing"
	"time"

	"certchains/internal/zeek"
)

// TestAggregatorSnapshotOrder pins the aggregator snapshot as canonical:
// open windows encode in ascending index order whatever order they opened
// in, and a restored aggregator snapshots to the same state.
func TestAggregatorSnapshotOrder(t *testing.T) {
	g := newAggregator(time.Hour)
	for _, h := range []int64{5, 2, 7, 0, 3, 6, 1, 4} {
		g.add(&zeek.Connection{SSL: &zeek.SSLRecord{TS: time.Unix(h*3600, 0), RespH: "10.0.0.1", RespP: 443}})
	}
	s := g.snapshot()
	for i, w := range s.Windows {
		if w.Idx != int64(i) {
			t.Fatalf("snapshot window %d has index %d; want the 8 windows in ascending order", i, w.Idx)
		}
	}
	restored, err := restoreAggregator(time.Hour, s)
	if err != nil {
		t.Fatal(err)
	}
	if again := restored.snapshot(); !reflect.DeepEqual(again, s) {
		t.Errorf("restored aggregator snapshots differently:\n got %+v\nwant %+v", again, s)
	}
}
