package dn

import (
	"fmt"
	"reflect"
	"testing"
)

func TestInternerParseMemoization(t *testing.T) {
	var in Interner
	raw := []byte("CN=leaf.example.edu,O=Campus,C=US")
	d1, err1 := in.Parse(raw)
	if err1 != nil {
		t.Fatal(err1)
	}
	want, _ := Parse(string(raw))
	if !reflect.DeepEqual(d1, want) {
		t.Fatalf("memoized parse diverged from Parse: %v vs %v", d1, want)
	}
	// Same content from a different buffer returns the shared DN value
	// (same backing RDN slice, not just equal content).
	d2, err2 := in.Parse(append([]byte(nil), raw...))
	if err2 != nil {
		t.Fatal(err2)
	}
	if len(d1) == 0 || len(d2) != len(d1) || &d1[0] != &d2[0] {
		t.Fatal("second parse did not return the shared DN")
	}
	if in.Len() != 1 {
		t.Fatalf("Len() = %d, want 1", in.Len())
	}
}

func TestInternerParseErrorMemoization(t *testing.T) {
	var in Interner
	bad := []byte("=novalue")
	if _, err := Parse(string(bad)); err == nil {
		t.Fatal("expected Parse to reject input")
	}
	_, err1 := in.Parse(bad)
	_, err2 := in.Parse(append([]byte(nil), bad...))
	if err1 == nil || err2 == nil {
		t.Fatal("memoized parse accepted bad input")
	}
	// The identical error value (not merely equal text) every occurrence:
	// callers wrapping it produce byte-identical messages.
	if err1 != err2 {
		t.Fatalf("memoized errors differ: %v vs %v", err1, err2)
	}
	// The empty DN error is memoized too.
	_, e1 := in.Parse(nil)
	_, e2 := in.Parse([]byte{})
	if e1 == nil || e1 != e2 {
		t.Fatalf("empty-input errors not shared: %v vs %v", e1, e2)
	}
}

func TestInternerParseNoInputRetention(t *testing.T) {
	var in Interner
	buf := []byte("CN=scratch,O=Campus")
	if _, err := in.Parse(buf); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = '#'
	}
	d, err := in.Parse([]byte("CN=scratch,O=Campus"))
	if err != nil {
		t.Fatal(err)
	}
	if cn := d.CommonName(); cn != "scratch" {
		t.Fatalf("memoized DN corrupted by input mutation: CN=%q", cn)
	}
	if in.Len() != 1 {
		t.Fatalf("Len() = %d, want 1 (mutated buffer must not add an entry)", in.Len())
	}
}

func TestInternerSteadyStateAllocs(t *testing.T) {
	var in Interner
	keys := [][]byte{
		[]byte("CN=a,O=X"), []byte("CN=b,O=X"), []byte("CN=c,O=Y,C=US"),
	}
	for _, k := range keys {
		if _, err := in.Parse(k); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		_, _ = in.Parse(keys[i%len(keys)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state Parse allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestInternerMaxSwapsEpochs: a bounded memo never holds more than Max
// entries and keeps parsing correctly across the swap.
func TestInternerMaxSwapsEpochs(t *testing.T) {
	in := Interner{Max: 3}
	for i := 0; i < 8; i++ {
		raw := fmt.Sprintf("CN=host%d,O=Campus", i)
		d, err := in.Parse([]byte(raw))
		if err != nil || d.String() != raw {
			t.Fatalf("Parse(%q) = %q, %v", raw, d.String(), err)
		}
		if in.Len() > 3 {
			t.Fatalf("Len() = %d after %d inserts, Max 3", in.Len(), i+1)
		}
	}
}
