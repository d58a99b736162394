//certchain:hotpath — the byte-level field parsers run once per log field.

package zeek

import (
	"bytes"
	"strconv"
	"time"
)

// unescapeInPlace resolves the Zeek writer's escapes, rewriting b in place
// (the result is never longer than the input). The state machine mirrors
// unescapeField byte for byte, including its tolerance of dangling and
// malformed escapes.
func unescapeInPlace(b []byte) []byte {
	i := bytes.IndexByte(b, '\\')
	if i < 0 {
		return b
	}
	w := i
	for i < len(b) {
		if b[i] == '\\' && i+1 < len(b) {
			switch b[i+1] {
			case '\\':
				b[w] = '\\'
				w++
				i += 2
				continue
			case 'x':
				if i+3 < len(b) {
					hi, okHi := hexVal(b[i+2])
					lo, okLo := hexVal(b[i+3])
					if okHi && okLo {
						b[w] = hi<<4 | lo
						w++
						i += 4
						continue
					}
				}
			}
		}
		b[w] = b[i]
		w++
		i++
	}
	return b[:w]
}

func hexVal(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// pow10 holds the exactly-representable powers of ten the fast float path
// divides by (10^0 .. 10^22 are exact in float64).
var pow10 = [23]float64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// parseFloatBytes parses a decimal float without allocating for the common
// Zeek time shape (plain digits with one optional dot). The fast path only
// fires when the result is provably identical to strconv.ParseFloat: the
// mantissa fits 2^53 (float64(mant) exact) and the scale is an exact power
// of ten, so the IEEE division is the correctly-rounded decimal value.
// Everything else — exponents, underscores, huge mantissas, malformed input
// — falls back to ParseFloat on a copied string.
func parseFloatBytes(b []byte) (float64, bool) {
	var (
		mant    uint64
		digits  int
		frac    int
		seenDot bool
		neg     bool
	)
	i := 0
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		i++
	}
	fast := i < len(b)
	for ; i < len(b); i++ {
		c := b[i]
		if c == '.' {
			if seenDot {
				fast = false
				break
			}
			seenDot = true
			continue
		}
		if c < '0' || c > '9' {
			fast = false
			break
		}
		mant = mant*10 + uint64(c-'0')
		digits++
		if seenDot {
			frac++
		}
	}
	if fast && digits > 0 && digits <= 19 && mant <= 1<<53 && frac <= 22 {
		f := float64(mant) / pow10[frac]
		if neg {
			f = -f
		}
		return f, true
	}
	f, err := strconv.ParseFloat(string(b), 64) //certchain:coldpath rare shape, exact-oracle fallback
	if err != nil {
		return 0, false
	}
	return f, true
}

// epochToTime converts epoch seconds exactly as Record.GetTime does.
func epochToTime(f float64) time.Time {
	sec := int64(f)
	nsec := int64((f - float64(sec)) * 1e9)
	return time.Unix(sec, nsec).UTC()
}

// parseIntBytes parses a base-10 int with strconv.Atoi's semantics without
// allocating for inputs short enough to preclude overflow; longer inputs
// fall back to Atoi itself for exact range behaviour.
func parseIntBytes(b []byte) (int, bool) {
	i := 0
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		i++
	}
	if i == len(b) || len(b)-i > 18 {
		n, err := strconv.Atoi(string(b)) //certchain:coldpath rare shape, exact-oracle fallback
		if err != nil {
			return 0, false
		}
		return n, true
	}
	n := 0
	for j := i; j < len(b); j++ {
		c := b[j]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	if i == 1 && b[0] == '-' {
		n = -n
	}
	return n, true
}
