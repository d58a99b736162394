//certchain:hotpath — DN parse memoization sits under every x509 row decode.

package dn

// Interner memoizes Parse by raw input string. Campus logs repeat the same
// issuer and subject strings across millions of x509 rows; parsing each
// distinct string once and sharing the resulting DN (DNs are read-only by
// convention — mutation goes through Clone) removes the dominant per-row
// allocation of the decode path. Parse errors are memoized too, so a
// malformed DN string yields the identical error value on every occurrence.
//
// The zero value is ready to use. An Interner is NOT safe for concurrent
// use; give each decode stream its own.
type Interner struct {
	// Max, when positive, bounds the table for long-lived owners: a miss that
	// finds Max entries starts a fresh table instead of growing. DNs handed
	// out before the swap stay valid. Set it before first use.
	Max int

	m map[string]internEntry
}

type internEntry struct {
	d   DN
	err error
}

// Parse parses the DN in raw, memoized by content. The returned DN is
// shared across calls with equal input and must be treated as read-only;
// raw's backing array is never retained.
func (in *Interner) Parse(raw []byte) (DN, error) {
	if e, ok := in.m[string(raw)]; ok {
		return e.d, e.err
	}
	if in.m == nil || (in.Max > 0 && len(in.m) >= in.Max) {
		in.m = make(map[string]internEntry) //certchain:coldpath first insert, or one table per Max misses
	}
	s := string(raw) //certchain:coldpath one copy per distinct DN and epoch, on its first miss
	d, err := Parse(s)
	in.m[s] = internEntry{d: d, err: err}
	return d, err
}

// Len reports the number of distinct raw strings in the current table.
func (in *Interner) Len() int { return len(in.m) }
