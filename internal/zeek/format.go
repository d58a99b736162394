//certchain:hotpath — the TSV writer runs once per log line.

// Package zeek implements the Zeek network-monitor log format and the two
// log streams the paper's pipeline consumes: ssl.log (TLS connection
// records) and x509.log (certificate records), cross-referenced through
// file-unique certificate identifiers exactly as Zeek emits them.
//
// The on-disk format is Zeek's tab-separated-value layout: a header block of
// '#'-prefixed directives (#separator, #fields, #types, ...) followed by one
// record per line, with '-' for unset fields, '(empty)' for empty values,
// and ',' separating vector elements.
package zeek

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"time"
)

// Field separators and sentinels of the standard Zeek ASCII writer.
const (
	Separator    = "\t"
	SetSeparator = ","
	EmptyField   = "(empty)"
	UnsetField   = "-"
)

// Header describes one log stream.
type Header struct {
	Path   string
	Fields []string
	Types  []string
	Open   time.Time
}

// Writer emits records for a single log stream in Zeek ASCII format.
type Writer struct {
	w      *bufio.Writer
	header Header
	opened bool
	line   []byte // the record being formatted
}

// NewWriter creates a writer for the given stream header.
func NewWriter(w io.Writer, h Header) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16), header: h}
}

// writeHeader emits the '#'-directive block once per stream.
//
//certchain:coldpath runs once per log stream, not per record
func (w *Writer) writeHeader() error {
	h := w.header
	if len(h.Fields) != len(h.Types) {
		return fmt.Errorf("zeek: header fields/types mismatch: %d vs %d", len(h.Fields), len(h.Types))
	}
	lines := []string{
		"#separator \\x09",
		"#set_separator\t" + SetSeparator,
		"#empty_field\t" + EmptyField,
		"#unset_field\t" + UnsetField,
		"#path\t" + h.Path,
		"#open\t" + h.Open.Format("2006-01-02-15-04-05"),
		"#fields\t" + strings.Join(h.Fields, Separator),
		"#types\t" + strings.Join(h.Types, Separator),
	}
	for _, l := range lines {
		if _, err := w.w.WriteString(l + "\n"); err != nil {
			return fmt.Errorf("zeek: write header: %w", err)
		}
	}
	w.opened = true
	return nil
}

// WriteRecord writes one record; values must align with the header fields.
// Nil/empty strings are emitted as the unset sentinel.
func (w *Writer) WriteRecord(values []string) error {
	if len(values) != len(w.header.Fields) {
		return fmt.Errorf("zeek: record has %d values, header has %d fields", len(values), len(w.header.Fields)) //certchain:coldpath caller-bug error path
	}
	w.line = w.line[:0]
	for i, v := range values {
		if i > 0 {
			w.line = append(w.line, '\t')
		}
		w.line = appendField(w.line, v)
	}
	return w.writeLine()
}

// writeLine ends the record formatted in w.line and writes it, after the
// header block if the stream has none yet.
func (w *Writer) writeLine() error {
	if !w.opened {
		if err := w.writeHeader(); err != nil {
			return err
		}
	}
	w.line = append(w.line, '\n')
	_, err := w.w.Write(w.line)
	return err
}

// Close flushes the stream and writes the #close trailer.
func (w *Writer) Close(at time.Time) error {
	if !w.opened {
		if err := w.writeHeader(); err != nil {
			return err
		}
	}
	if _, err := w.w.WriteString("#close\t" + at.Format("2006-01-02-15-04-05") + "\n"); err != nil {
		return err
	}
	return w.w.Flush()
}

// Flush pushes buffered records to the underlying writer without closing the
// stream — what a live Zeek worker does between rotations, and what the
// replay emitter needs so a tailer sees records as they are written.
func (w *Writer) Flush() error {
	if !w.opened {
		if err := w.writeHeader(); err != nil {
			return err
		}
	}
	return w.w.Flush()
}

// appendField appends v as a TSV value, the unset sentinel when empty.
func appendField(dst []byte, v string) []byte {
	if v == "" {
		return append(dst, UnsetField...)
	}
	return appendEscaped(dst, v)
}

// appendVector appends a vector value: the elements escaped and joined by
// the set separator, the unset sentinel when that join is empty. Only the
// join's first byte is checked for a leading '#'.
func appendVector(dst []byte, elems []string) []byte {
	if len(elems) == 0 || len(elems) == 1 && elems[0] == "" {
		return append(dst, UnsetField...)
	}
	for i, e := range elems {
		if i == 0 {
			dst = appendEscaped(dst, e)
			continue
		}
		dst = append(dst, SetSeparator...)
		dst = appendEscapedBody(dst, e)
	}
	return dst
}

// appendBool appends a Zeek bool.
func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 'T')
	}
	return append(dst, 'F')
}

// appendEscaped appends v as a TSV value: tab, newline and backslash
// escaped, and a leading '#', which would make a data line read as a header
// directive.
func appendEscaped(dst []byte, v string) []byte {
	if v != "" && v[0] == '#' {
		dst = append(dst, `\x23`...)
		v = v[1:]
	}
	return appendEscapedBody(dst, v)
}

// appendEscapedBody is appendEscaped past the first byte: '#' is literal.
func appendEscapedBody(dst []byte, v string) []byte {
	if strings.IndexByte(v, '\t') < 0 && strings.IndexByte(v, '\n') < 0 && strings.IndexByte(v, '\\') < 0 {
		return append(dst, v...)
	}
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\t':
			dst = append(dst, `\x09`...)
		case '\n':
			dst = append(dst, `\x0a`...)
		case '\\':
			dst = append(dst, `\\`...)
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

func unescapeField(v string) string {
	if !strings.Contains(v, "\\") {
		return v
	}
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		if v[i] == '\\' && i+1 < len(v) {
			switch v[i+1] {
			case '\\':
				b.WriteByte('\\')
				i++
				continue
			case 'x':
				if i+3 < len(v) {
					if n, err := strconv.ParseUint(v[i+2:i+4], 16, 8); err == nil {
						b.WriteByte(byte(n))
						i += 3
						continue
					}
				}
			}
		}
		b.WriteByte(v[i])
	}
	return b.String()
}

// Record is a parsed log line keyed by field name.
type Record map[string]string

// Get returns a field value, treating the unset sentinel as absent.
func (r Record) Get(field string) (string, bool) {
	v, ok := r[field]
	if !ok || v == UnsetField {
		return "", false
	}
	if v == EmptyField {
		return "", true
	}
	return v, true
}

// GetVector splits a vector-typed field on the set separator.
func (r Record) GetVector(field string) []string {
	v, ok := r.Get(field)
	if !ok || v == "" {
		return nil
	}
	return strings.Split(v, SetSeparator)
}

// GetBool parses a Zeek bool field ("T"/"F").
func (r Record) GetBool(field string) (value, present bool) {
	v, ok := r.Get(field)
	if !ok {
		return false, false
	}
	return v == "T", true
}

// GetTime parses a Zeek time field (epoch seconds with fraction).
func (r Record) GetTime(field string) (time.Time, bool) {
	v, ok := r.Get(field)
	if !ok {
		return time.Time{}, false
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return time.Time{}, false
	}
	sec := int64(f)
	nsec := int64((f - float64(sec)) * 1e9)
	return time.Unix(sec, nsec).UTC(), true
}

// GetInt parses a count/int field.
func (r Record) GetInt(field string) (int, bool) {
	v, ok := r.Get(field)
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, false
	}
	return n, true
}

// parseDirective returns the column names of a '#fields' header line; ok is
// false for every other directive (#separator, #path, #close, ...), none of
// which affects decoding.
func parseDirective(line string) (fields []string, ok bool) {
	key, rest, _ := strings.Cut(line, Separator)
	if key != "#fields" {
		return nil, false
	}
	return strings.Split(rest, Separator), true
}

// appendEpoch appends a Zeek time value, epoch seconds with microsecond
// precision: float64(ns)/1e9 with six decimals, byte for byte what
// strconv.FormatFloat(float64(ns)/1e9, 'f', 6, 64) returns, without
// strconv's arbitrary-precision path.
func appendEpoch(dst []byte, ns int64) []byte {
	micros, neg, _, ok := epochMicros(ns)
	if !ok {
		return strconv.AppendFloat(dst, float64(ns)/1e9, 'f', 6, 64)
	}
	return appendMicros(dst, micros, neg)
}

// epochMicros returns |float64(ns)/1e9| in whole microseconds, rounded as
// strconv's fixed-precision formatting rounds: half to even on the float's
// exact binary value, not on ns. The float is mant/2^shift with a 53-bit
// mant; the product mant*1e6 fits in 128 bits, so the division is exact.
// ok is false outside 2^-11 ≤ |f| < 2^43 (shift outside [10, 63]), where the
// quotient or the shift leaves 64 bits.
func epochMicros(ns int64) (micros uint64, neg bool, shift uint, ok bool) {
	b := math.Float64bits(float64(ns) / 1e9)
	neg = b>>63 != 0
	biased := int(b >> 52 & 0x7ff)
	if biased == 0 || biased > 1075-10 || biased < 1075-63 {
		return 0, neg, 0, false
	}
	shift = uint(1075 - biased)
	mant := b&(1<<52-1) | 1<<52
	hi, lo := bits.Mul64(mant, 1e6)
	q := hi<<(64-shift) | lo>>shift
	rem, half := lo&(1<<shift-1), uint64(1)<<(shift-1)
	if rem > half || rem == half && q&1 == 1 {
		q++
	}
	return q, neg, shift, true
}

// appendMicros appends ±micros/1e6 with six decimals.
func appendMicros(dst []byte, micros uint64, neg bool) []byte {
	if neg {
		dst = append(dst, '-')
	}
	dst = strconv.AppendUint(dst, micros/1e6, 10)
	frac := micros % 1e6
	return append(dst, '.',
		byte('0'+frac/1e5), byte('0'+frac/1e4%10), byte('0'+frac/1e3%10),
		byte('0'+frac/100%10), byte('0'+frac/10%10), byte('0'+frac%10))
}

// FormatBool renders a Zeek bool.
func FormatBool(b bool) string {
	if b {
		return "T"
	}
	return "F"
}
