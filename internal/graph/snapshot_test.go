package graph

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"certchains/internal/certmodel"
	"certchains/internal/dn"
	"certchains/internal/trustdb"
)

func snapMeta(t *testing.T, subject, issuer string) *certmodel.Meta {
	t.Helper()
	s, err := dn.Parse("CN=" + subject)
	if err != nil {
		t.Fatal(err)
	}
	i, err := dn.Parse("CN=" + issuer)
	if err != nil {
		t.Fatal(err)
	}
	m := &certmodel.Meta{
		Subject:   s,
		Issuer:    i,
		NotBefore: time.Unix(1_600_000_000, 0).UTC(),
		NotAfter:  time.Unix(1_660_000_000, 0).UTC(),
	}
	m.FP = certmodel.SyntheticFingerprint(m.Issuer, m.Subject, "01", m.NotBefore, m.NotAfter)
	return m
}

func TestGraphSnapshotRoundTrip(t *testing.T) {
	leaf := snapMeta(t, "leaf.example", "Inter CA")
	inter := snapMeta(t, "Inter CA", "Root CA")
	root := snapMeta(t, "Root CA", "Root CA")
	other := snapMeta(t, "other.example", "Inter CA")

	g := New()
	g.AddChain(certmodel.Chain{leaf, inter, root},
		[]trustdb.Class{trustdb.IssuedByNonPublicDB, trustdb.IssuedByPublicDB, trustdb.IssuedByPublicDB})
	g.AddChain(certmodel.Chain{other, inter}, nil)

	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	r := New()
	if err := json.Unmarshal(data, r); err != nil {
		t.Fatal(err)
	}
	table := certmodel.CertTable{leaf.FP: leaf, inter.FP: inter, root.FP: root, other.FP: other}
	if err := r.Resolve(table); err != nil {
		t.Fatal(err)
	}

	if r.NodeCount() != g.NodeCount() || r.EdgeCount() != g.EdgeCount() {
		t.Fatalf("size mismatch: %d/%d nodes, %d/%d edges",
			r.NodeCount(), g.NodeCount(), r.EdgeCount(), g.EdgeCount())
	}
	want, got := g.Nodes(), r.Nodes()
	for i := range want {
		if got[i].FP != want[i].FP || got[i].Class != want[i].Class ||
			got[i].Role != want[i].Role || got[i].Degree != want[i].Degree {
			t.Fatalf("node %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
	if !reflect.DeepEqual(r.DegreeDistribution(), g.DegreeDistribution()) {
		t.Fatal("degree distribution differs after round trip")
	}
	if !reflect.DeepEqual(r.Components(), g.Components()) {
		t.Fatal("components differ after round trip")
	}

	// A restored graph keeps merging like the original.
	extra := New()
	more := snapMeta(t, "more.example", "Inter CA")
	extra.AddChain(certmodel.Chain{more, inter}, nil)
	r.Merge(extra)
	g.Merge(extra)
	if a, b := mustMarshal(t, r), mustMarshal(t, g); a != b {
		t.Fatalf("decoded graph merges differently:\n%s\n%s", a, b)
	}
}

func mustMarshal(t *testing.T, g *Graph) string {
	t.Helper()
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestGraphSnapshotUnknownRefs(t *testing.T) {
	g := New()
	if err := json.Unmarshal([]byte(`{"nodes":[{"fp":"missing","class":0,"role":0}]}`), g); err != nil {
		t.Fatal(err)
	}
	if err := g.Resolve(certmodel.CertTable{}); err == nil {
		t.Fatal("expected error for unresolvable node")
	}
	if err := json.Unmarshal([]byte(`{"edges":[["a","b"]]}`), New()); err == nil {
		t.Fatal("expected error for edge to unknown node")
	}
	if err := json.Unmarshal([]byte(`{}`), g); err != nil || g.NodeCount() != 0 {
		t.Fatalf("empty graph: %v, %d nodes", err, g.NodeCount())
	}
	if data := mustMarshal(t, New()); data != `{}` {
		t.Fatalf("empty graph encodes as %s, want {}", data)
	}
}
