//certchain:hotpath — the ND-JSON tokenizer runs once per log line.

package zeek

import "unicode/utf8"

// jsonTok is a minimal tokenizer over one ND-JSON line. It recognizes only
// the flat, escape-free shape Zeek's writers emit; anything outside that
// subset makes the caller fall back to the legacy full-line parse, which
// guarantees behavioural equivalence on anomalous input (including the
// exact encoding/json error text for malformed lines).
type jsonTok struct {
	b []byte
	i int
}

func (t *jsonTok) ws() {
	for t.i < len(t.b) {
		switch t.b[t.i] {
		case ' ', '\t', '\r', '\n':
			t.i++
		default:
			return
		}
	}
}

func (t *jsonTok) peek() byte {
	t.ws()
	if t.i >= len(t.b) {
		return 0
	}
	return t.b[t.i]
}

// simpleString scans a JSON string containing no escapes, no control bytes,
// and only valid UTF-8 (encoding/json would rewrite invalid sequences), and
// returns its contents as a view into the line.
func (t *jsonTok) simpleString() ([]byte, bool) {
	s, ok := t.simpleSpan()
	return s.of(t.b), ok
}

// simpleSpan is simpleString as offsets into the line.
func (t *jsonTok) simpleSpan() (span, bool) {
	b := t.b
	if t.i >= len(b) || b[t.i] != '"' {
		return span{}, false
	}
	i := t.i + 1
	start := i
	for i < len(b) {
		c := b[i]
		if c == '"' {
			if !utf8.Valid(b[start:i]) {
				return span{}, false
			}
			t.i = i + 1
			return mkSpan(start, i), true
		}
		if c == '\\' || c < 0x20 {
			return span{}, false
		}
		i++
	}
	return span{}, false
}

// number scans a strict-grammar JSON number and converts it exactly as
// encoding/json does (both route through strconv.ParseFloat semantics).
// Out-of-range literals return ok=false so the caller falls back to the
// legacy parse and its exact error.
func (t *jsonTok) number() (float64, bool) {
	b := t.b
	i := t.i
	start := i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	default:
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return 0, false
		}
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return 0, false
		}
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	}
	f, ok := parseFloatBytes(b[start:i])
	if !ok {
		return 0, false
	}
	t.i = i
	return f, true
}

func (t *jsonTok) literal(lit string) bool {
	if len(t.b)-t.i >= len(lit) && string(t.b[t.i:t.i+len(lit)]) == lit {
		t.i += len(lit)
		return true
	}
	return false
}

// skipValue validates and skips one value of the supported subset (string,
// number, bool, null, array of those). Nested objects and anything
// malformed return false, sending the caller to the legacy parse.
func (t *jsonTok) skipValue() bool {
	t.ws()
	if t.i >= len(t.b) {
		return false
	}
	switch c := t.b[t.i]; {
	case c == '"':
		_, ok := t.simpleString()
		return ok
	case c == '-' || (c >= '0' && c <= '9'):
		_, ok := t.number()
		return ok
	case c == 't':
		return t.literal("true")
	case c == 'f':
		return t.literal("false")
	case c == 'n':
		return t.literal("null")
	case c == '[':
		t.i++
		if t.peek() == ']' {
			t.i++
			return true
		}
		for {
			if !t.skipValue() {
				return false
			}
			switch t.peek() {
			case ',':
				t.i++
			case ']':
				t.i++
				return true
			default:
				return false
			}
		}
	default:
		return false
	}
}
