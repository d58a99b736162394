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
	if !w.opened {
		if err := w.writeHeader(); err != nil {
			return err
		}
	}
	if len(values) != len(w.header.Fields) {
		return fmt.Errorf("zeek: record has %d values, header has %d fields", len(values), len(w.header.Fields)) //certchain:coldpath caller-bug error path
	}
	w.line = w.line[:0]
	for i, v := range values {
		if i > 0 {
			w.line = append(w.line, '\t')
		}
		if v == "" {
			v = UnsetField
		}
		w.line = appendEscaped(w.line, v)
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

// appendEscaped appends v as a TSV value: tab, newline and backslash
// escaped, and a leading '#', which would make a data line read as a header
// directive.
func appendEscaped(dst []byte, v string) []byte {
	if !strings.ContainsAny(v, "\t\n\\") && !strings.HasPrefix(v, "#") {
		return append(dst, v...)
	}
	for i := 0; i < len(v); i++ {
		switch c := v[i]; {
		case c == '\t':
			dst = append(dst, `\x09`...)
		case c == '\n':
			dst = append(dst, `\x0a`...)
		case c == '\\':
			dst = append(dst, `\\`...)
		case c == '#' && i == 0:
			dst = append(dst, `\x23`...)
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

// FormatTime renders a Zeek time value (epoch with microsecond precision).
func FormatTime(t time.Time) string {
	return strconv.FormatFloat(float64(t.UnixNano())/1e9, 'f', 6, 64)
}

// FormatBool renders a Zeek bool.
func FormatBool(b bool) string {
	if b {
		return "T"
	}
	return "F"
}
