//certchain:hotpath — the interner sits under every per-row string the Zeek
// decoders materialize.

package certmodel

import "sync"

// Interner canonicalizes byte views into owned, deduplicated strings. The
// Zeek decode hot path reads fields as views into a reused row buffer;
// interning is the step that makes a field value safe to retain (the
// returned string is an independent copy, never aliasing the view) while
// collapsing the massive repetition real logs carry — issuer and subject
// DNs, SNIs, server IPs, algorithm names — to one allocation per distinct
// value instead of one per row.
//
// The zero value is ready to use. An Interner is safe for concurrent use;
// the steady-state hit path takes only a read lock and allocates nothing
// (the map probe with a string conversion of the byte view does not copy).
type Interner struct {
	// Max, when positive, bounds the table for long-lived owners: a miss that
	// finds Max entries starts a fresh table (an epoch swap) instead of
	// growing. Interning is only an optimization — strings handed out before
	// the swap stay valid, equal inputs merely stop sharing storage across
	// epochs. Set it before first use.
	Max int

	mu sync.RWMutex
	m  map[string]string
}

// insert stores s under the write lock, swapping epochs at the bound.
func (in *Interner) insert(s string) {
	if in.m == nil || (in.Max > 0 && len(in.m) >= in.Max) {
		in.m = make(map[string]string) //certchain:coldpath first insert, or one table per Max misses
	}
	in.m[s] = s
}

// Bytes returns the canonical string for b. Equal inputs return the same
// canonical string; the result never aliases b's backing array.
func (in *Interner) Bytes(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	in.mu.RLock()
	s, ok := in.m[string(b)]
	in.mu.RUnlock()
	if ok {
		return s
	}
	in.mu.Lock()
	s, ok = in.m[string(b)]
	if !ok {
		s = string(b) //certchain:coldpath one copy per distinct value and epoch, on its first miss
		in.insert(s)
	}
	in.mu.Unlock()
	return s
}

// String returns the canonical string for s, interning it on first sight.
func (in *Interner) String(s string) string {
	if s == "" {
		return ""
	}
	in.mu.RLock()
	c, ok := in.m[s]
	in.mu.RUnlock()
	if ok {
		return c
	}
	in.mu.Lock()
	c, ok = in.m[s]
	if !ok {
		c = s
		in.insert(s)
	}
	in.mu.Unlock()
	return c
}

// Len reports the number of distinct strings in the current table.
func (in *Interner) Len() int {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return len(in.m)
}
