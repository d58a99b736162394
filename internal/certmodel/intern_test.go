package certmodel

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"
)

// sameStringData reports whether two strings share one backing array — the
// canonical-pointer property the interner guarantees for equal inputs.
func sameStringData(a, b string) bool {
	return len(a) == len(b) && (len(a) == 0 || unsafe.StringData(a) == unsafe.StringData(b))
}

func TestInternerCanonicalIdentity(t *testing.T) {
	var in Interner
	inputs := []string{"CN=Inter CA,O=Campus", "10.20.30.40", "TLS_AES_128_GCM_SHA256", "a", ""}
	for _, want := range inputs {
		first := in.Bytes([]byte(want))
		if first != want {
			t.Fatalf("Bytes(%q) = %q", want, first)
		}
		// Equal content through both entry points, from distinct buffers,
		// must return the same canonical backing array.
		again := in.Bytes([]byte(want))
		viaString := in.String(string(append([]byte(nil), want...)))
		if !sameStringData(first, again) || !sameStringData(first, viaString) {
			t.Fatalf("intern of %q did not return the canonical string", want)
		}
	}
	if got := in.Len(); got != len(inputs)-1 { // "" is not stored
		t.Fatalf("Len() = %d, want %d", got, len(inputs)-1)
	}
}

func TestInternerResultNeverAliasesInput(t *testing.T) {
	var in Interner
	buf := []byte("mutable-input")
	s := in.Bytes(buf)
	copy(buf, "XXXXXXX")
	if s != "mutable-input" {
		t.Fatalf("interned string changed with its input buffer: %q", s)
	}
}

// TestInternerReusedBufferNoCrossContamination drives the interner exactly
// the way the decoders do — one scratch row buffer, rewritten per row, with
// field views of varying length into it — and checks no stored value is
// corrupted by later rewrites or by prefix-sharing between values.
func TestInternerReusedBufferNoCrossContamination(t *testing.T) {
	var in Interner
	buf := make([]byte, 64)
	words := []string{"alpha", "alp", "alphabet", "beta", "alpha", "be", "betamax"}
	got := make([]string, len(words))
	for i, w := range words {
		n := copy(buf, w)
		got[i] = in.Bytes(buf[:n])
		// Scribble over the buffer as the next readLine would.
		for j := range buf {
			buf[j] = '#'
		}
	}
	for i, w := range words {
		if got[i] != w {
			t.Fatalf("value %d corrupted: got %q, want %q", i, got[i], w)
		}
	}
	// Prefixes are distinct entries, not views into longer strings.
	if got[0] == got[1] || got[0] == got[2] {
		t.Fatal("prefix values collapsed")
	}
	if !sameStringData(got[0], got[4]) {
		t.Fatal("repeat of alpha is not canonical")
	}
}

func TestInternerSteadyStateZeroAlloc(t *testing.T) {
	var in Interner
	keys := make([][]byte, 32)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("steady-state-key-%02d", i))
		in.Bytes(keys[i])
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		in.Bytes(keys[i%len(keys)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state Bytes allocated %.1f allocs/op, want 0", allocs)
	}
	j := 0
	strs := make([]string, len(keys))
	for i, k := range keys {
		strs[i] = string(k)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		in.String(strs[j%len(strs)])
		j++
	})
	if allocs != 0 {
		t.Fatalf("steady-state String allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestInternerConcurrent hammers one interner from concurrent shards (run
// under -race in CI) and verifies every shard observed the same canonical
// value per key.
func TestInternerConcurrent(t *testing.T) {
	var in Interner
	const shards = 8
	const keys = 100
	results := make([][]string, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			out := make([]string, keys)
			buf := make([]byte, 0, 32)
			for round := 0; round < 50; round++ {
				for k := 0; k < keys; k++ {
					buf = append(buf[:0], "shared-key-"...)
					buf = append(buf, byte('0'+k/10), byte('0'+k%10))
					out[k] = in.Bytes(buf)
				}
			}
			results[s] = out
		}(s)
	}
	wg.Wait()
	for s := 1; s < shards; s++ {
		for k := 0; k < keys; k++ {
			if !sameStringData(results[0][k], results[s][k]) {
				t.Fatalf("shard %d key %d: non-canonical value", s, k)
			}
		}
	}
	if in.Len() != keys {
		t.Fatalf("Len() = %d, want %d", in.Len(), keys)
	}
}

// TestInternerMaxSwapsEpochs: a bounded interner never holds more than Max
// entries, and what it handed out before a swap stays intact.
func TestInternerMaxSwapsEpochs(t *testing.T) {
	in := Interner{Max: 4}
	var out []string
	for i := 0; i < 10; i++ {
		out = append(out, in.Bytes([]byte(fmt.Sprintf("value-%d", i))))
		if in.Len() > 4 {
			t.Fatalf("Len() = %d after %d inserts, Max 4", in.Len(), i+1)
		}
	}
	for i, s := range out {
		if s != fmt.Sprintf("value-%d", i) {
			t.Fatalf("out[%d] = %q after epoch swaps", i, s)
		}
	}
	// Within an epoch equal inputs still share storage.
	a, b := in.String("again"), in.Bytes([]byte("again"))
	if !sameStringData(a, b) {
		t.Fatal("equal inputs in one epoch did not intern to one string")
	}
}
