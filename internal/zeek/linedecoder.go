package zeek

import (
	"fmt"
	"strings"
)

// This file is the Record-based line decoding a Tailer built by NewTailer
// runs: string lines in, generic Record maps out. The daemon does not use it
// (its tailers decode typed rows through RowDecoder); it stays as the
// benchmark's per-layer probe surface and as the independent oracle the
// typed path is fuzzed against: line by line (FuzzStreamDecodeEquivalence),
// and under the batch readers and map join of oracle_test.go, which is why
// its errors carry the batch readers' text.

// LineDecoder turns raw log lines into generic Records. Implementations keep
// whatever per-file state the format needs (the TSV header block); the tailer
// resets the decoder on rotation, when the new file carries a new header.
type LineDecoder interface {
	// Decode parses one complete line. A nil record with nil error means the
	// line carried no data (blank line, header directive, #close footer).
	Decode(line string) (Record, error)
	// Closed reports whether the stream has announced its end (#close for
	// TSV; ND-JSON streams never do).
	Closed() bool
}

// TSVDecoder decodes Zeek ASCII (TSV) log lines.
type TSVDecoder struct {
	fields []string // the current #fields directive
	closed bool
	line   int
}

// NewTSVDecoder returns a decoder with no header state; the header block is
// folded in as directive lines arrive.
func NewTSVDecoder() *TSVDecoder { return &TSVDecoder{} }

// Decode implements LineDecoder.
func (d *TSVDecoder) Decode(line string) (Record, error) {
	if line == "" {
		return nil, nil
	}
	d.line++
	if strings.HasPrefix(line, "#") {
		if strings.HasPrefix(line, "#close") {
			d.closed = true
			return nil, nil
		}
		if strings.HasPrefix(line, "#open") {
			// A writer reopening the same file after #close resumes the stream.
			d.closed = false
		}
		if fields, ok := parseDirective(line); ok {
			d.fields = fields
		}
		return nil, nil
	}
	if len(d.fields) == 0 {
		return nil, fmt.Errorf("zeek: line %d: data before #fields header", d.line)
	}
	parts := strings.Split(line, Separator)
	if len(parts) != len(d.fields) {
		return nil, fmt.Errorf("zeek: line %d: %d values for %d fields", d.line, len(parts), len(d.fields))
	}
	rec := make(Record, len(parts))
	for i, f := range d.fields {
		rec[f] = unescapeField(parts[i])
	}
	return rec, nil
}

// Closed implements LineDecoder.
func (d *TSVDecoder) Closed() bool { return d.closed }

// restore reinstates header state from a snapshot, so a tailer resuming
// mid-file does not need to re-read the header block.
func (d *TSVDecoder) restore(fields []string, closed bool) {
	if len(fields) > 0 {
		d.fields = fields
	}
	d.closed = closed
}

// JSONDecoder decodes ND-JSON log lines. It is stateless but for the line
// count: every line is a self-contained object.
type JSONDecoder struct {
	line int
}

// NewJSONDecoder returns an ND-JSON line decoder.
func NewJSONDecoder() *JSONDecoder { return &JSONDecoder{} }

// Decode implements LineDecoder. Blank lines count, as bufio.Scanner's do.
func (d *JSONDecoder) Decode(line string) (Record, error) {
	d.line++
	if line == "" {
		return nil, nil
	}
	rec, err := jsonRecord([]byte(line))
	if err != nil {
		return nil, fmt.Errorf("zeek: json line %d: %w", d.line, err)
	}
	return rec, nil
}

// Closed implements LineDecoder.
func (d *JSONDecoder) Closed() bool { return false }
