//certchain:hotpath — the batch line scanner runs once per log line.

package zeek

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"time"
)

// maxJSONLine mirrors the legacy JSONReader's bufio.Scanner token limit: a
// line at or beyond this length (excluding the newline) is the same
// too-long error the Scanner reports.
const maxJSONLine = 1 << 24

// lineScanner is the batch half of the fast path: it reads a log stream line
// by line into a reused buffer and hands each line to a RowDecoder, wrapping
// it in the legacy readers' policy — a malformed line ends the stream with an
// error, except the fragment a mid-write truncation leaves at the end. Line
// accounting, terminator handling, truncation tolerance and every error
// string are pinned byte-identical to Reader (TSV) and JSONReader (ND-JSON)
// by the differential fuzzers in equiv_fuzz_test.go.
type lineScanner struct {
	br   *bufio.Reader
	json bool
	row  []byte // owned copy of the current line; decoded views alias it
	// cur is the current line (row minus terminators); terminated is whether
	// a newline ended it.
	cur        []byte
	terminated bool
	line       int
	eof        bool
}

func newLineScanner(r io.Reader, json bool) *lineScanner {
	return &lineScanner{br: bufio.NewReaderSize(r, 1<<16), json: json}
}

// readLine accumulates one line into s.row and reports whether it was
// newline-terminated. The row buffer is reused across lines.
func (s *lineScanner) readLine() (terminated bool, err error) {
	s.row = s.row[:0]
	for {
		chunk, err := s.br.ReadSlice('\n')
		s.row = append(s.row, chunk...)
		switch err {
		case nil:
			return true, nil
		case bufio.ErrBufferFull:
			continue
		case io.EOF:
			s.eof = true
			return false, nil
		default:
			s.eof = true
			return false, err //certchain:coldpath I/O error path
		}
	}
}

// scan advances to the next line worth decoding, left in s.cur. It returns
// false at end of stream. TSV counts non-empty lines and drops a directive
// fragment cut mid-write; ND-JSON counts every terminated line, as the
// legacy Scanner does.
func (s *lineScanner) scan() (bool, error) {
	for !s.eof {
		terminated, err := s.readLine()
		if err != nil {
			if s.json {
				return false, fmt.Errorf("zeek: json scan: %w", err) //certchain:coldpath I/O error path
			}
			return false, fmt.Errorf("zeek: read: %w", err) //certchain:coldpath I/O error path
		}
		row := s.row
		if terminated {
			row = row[:len(row)-1]
		}
		// The legacy Scanner rejects the token before stripping its \r.
		if s.json && len(row) >= maxJSONLine {
			return false, fmt.Errorf("zeek: json scan: %w", bufio.ErrTooLong) //certchain:coldpath malformed-stream error path
		}
		if n := len(row); n > 0 && row[n-1] == '\r' {
			row = row[:n-1]
		}
		if s.json && terminated || len(row) > 0 {
			s.line++
		}
		if len(row) == 0 {
			continue
		}
		if !s.json && row[0] == '#' && !terminated {
			// A directive fragment cut mid-write: not yet a directive.
			continue
		}
		s.cur, s.terminated = row, terminated
		return true, nil
	}
	return false, nil
}

// reject is the batch policy for a line the decoder could not turn into a
// row: the legacy readers' stream error, or nil for the fragment a writer
// leaves mid-record, which is not data yet.
//
//certchain:coldpath malformed-stream error path
func (s *lineScanner) reject(st rowStatus, cause error, d *RowDecoder) error {
	switch st {
	case rowNoHeader:
		return fmt.Errorf("zeek: line %d: data before #fields header", s.line)
	case rowFieldCount:
		if !s.terminated {
			return nil
		}
		return fmt.Errorf("zeek: line %d: %d values for %d fields", s.line, len(d.cols), len(d.fields))
	case rowBadJSON:
		return fmt.Errorf("zeek: json line %d: %w", s.line, cause)
	}
	return nil
}

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
