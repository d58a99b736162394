//certchain:hotpath — the tailer's line loop runs once per log line the daemon ingests.

package zeek

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"

	"certchains/internal/resilience"
)

// This file implements live log tailing: following a Zeek log file as the
// worker writes it, surviving partial trailing lines, in-place truncation,
// and rename-based rotation (Zeek's default ASCII writer renames ssl.log to
// ssl-<timestamp>.log and starts a fresh file each rotation interval).
//
// The tailer is deliberately poll-based (no inotify): polling is portable,
// trivially testable, and a daemon polling every few hundred milliseconds is
// indistinguishable from event-driven tailing at Zeek's log rates. Crucially
// the downstream join is poll-independent (see incjoin.go), so the poll
// cadence never changes analysis results.

// TailState is the serializable position of a tailer, persisted in daemon
// snapshots so a restart resumes tailing where it left off. Offset always
// points at a line boundary (partial reads are re-read after restore), so no
// buffered bytes need to be persisted.
type TailState struct {
	Offset    int64    `json:"offset"`
	Rotations int64    `json:"rotations,omitempty"`
	ParseErrs int64    `json:"parse_errs,omitempty"`
	TSVFields []string `json:"tsv_fields,omitempty"`
	Closed    bool     `json:"closed,omitempty"`
}

// lineHandler is what the line-following loop drives: the per-file decode
// state and the sink behind it. The loop hands it each complete line — a
// sub-slice of the read buffer, valid only during the call, newline and
// trailing \r stripped — and resets it when the path starts naming a new
// file.
type lineHandler interface {
	// handleLine decodes and delivers one line. errMalformedLine reports a
	// line the format rejects, which the tailer counts and survives; any
	// other error is the sink's and ends the poll.
	handleLine(line []byte) error
	reset()
	Closed() bool
	// header and restore carry the TSV header state through TailState, so a
	// tailer resuming mid-file does not need to re-read the header block.
	header() (fields []string, closed bool)
	restore(fields []string, closed bool)
}

var errMalformedLine = errors.New("zeek: malformed log line")

// recordLines is the Record surface: a caller-supplied LineDecoder emitting
// generic Records to the callback of the Poll in progress.
type recordLines struct {
	newDec func() LineDecoder
	dec    LineDecoder
	emit   func(Record) error
}

func (h *recordLines) handleLine(line []byte) error {
	rec, err := h.dec.Decode(string(line)) //certchain:coldpath Record probe/oracle surface, not the daemon's path
	if err != nil {
		return errMalformedLine
	}
	if rec == nil {
		return nil
	}
	return h.emit(rec)
}

func (h *recordLines) reset()       { h.dec = h.newDec() }
func (h *recordLines) Closed() bool { return h.dec.Closed() }

func (h *recordLines) header() ([]string, bool) {
	if d, ok := h.dec.(*TSVDecoder); ok {
		return d.fields, d.closed
	}
	return nil, false
}

func (h *recordLines) restore(fields []string, closed bool) {
	if d, ok := h.dec.(*TSVDecoder); ok {
		d.restore(fields, closed)
	}
}

// sslLines and x509Lines are the typed surface: a RowDecoder handing each
// pooled row — or the error of a line that decodes but is no valid record —
// to a fixed callback. The row is only valid until the callback returns.
type sslLines struct {
	*RowDecoder
	fn func(*SSLRecord, error) error
}

func (h sslLines) handleLine(line []byte) error {
	switch st, err := h.decodeSSL(line); st {
	case rowNone:
		return nil
	case rowOK:
		return h.fn(&h.ssl, nil)
	case rowRecordErr:
		return h.fn(nil, err)
	}
	return errMalformedLine
}

type x509Lines struct {
	*RowDecoder
	fn func(*X509Row, error) error
}

func (h x509Lines) handleLine(line []byte) error {
	switch st, err := h.decodeX509(line); st {
	case rowNone:
		return nil
	case rowOK:
		return h.fn(&h.x509, nil)
	case rowRecordErr:
		return h.fn(nil, err)
	}
	return errMalformedLine
}

// Tailer follows one growing log file. All file I/O goes through a
// resilience.FS, so a fault plan can fail opens, stats, and reads at chosen
// points; a failed Poll leaves the tailer's position untouched (read faults
// consume no bytes), so the caller just polls again.
type Tailer struct {
	path string
	h    lineHandler
	fsys resilience.FS

	f      resilience.File
	offset int64 // bytes of fully processed lines in the current file
	// r cuts the file into blk, the batch join's cutter under the tailer's
	// rules. Its carry is the bytes after offset not yet processed: a
	// partial line still waiting for its newline — or, when the sink stopped
	// a poll, every line it did not reach as well.
	r    blockReader
	blk  block
	size int64 // file size at the last poll, for lag reporting

	rotations int64
	parseErrs int64

	resume TailState // pending seek target from Restore, applied on open
}

// NewTailer follows path, decoding lines into generic Records with decoders
// from newDec — the probe and oracle surface; Poll and Finish drive it. The
// file does not need to exist yet; polls before it appears are no-ops.
func NewTailer(path string, newDec func() LineDecoder) *Tailer {
	return NewTailerFS(path, newDec, resilience.OS)
}

// NewTailerFS is NewTailer with an explicit filesystem — the seam chaos
// tests use to inject open/stat/read faults.
func NewTailerFS(path string, newDec func() LineDecoder, fsys resilience.FS) *Tailer {
	return newTailer(path, &recordLines{newDec: newDec, dec: newDec()}, fsys)
}

// NewSSLTailerFS follows an ssl.log, decoding each line with dec and handing
// fn the typed row — pooled: valid, with its CertChainFUIDs, only until fn
// returns — or, with a nil row, the error of a line that decodes but is not
// a valid record. Lines the format rejects are counted in ParseErrors.
// PollRows and FinishRows drive it.
func NewSSLTailerFS(path string, dec *RowDecoder, fn func(*SSLRecord, error) error, fsys resilience.FS) *Tailer {
	return newTailer(path, sslLines{dec, fn}, fsys)
}

// NewX509TailerFS is NewSSLTailerFS for an x509.log.
func NewX509TailerFS(path string, dec *RowDecoder, fn func(*X509Row, error) error, fsys resilience.FS) *Tailer {
	return newTailer(path, x509Lines{dec, fn}, fsys)
}

func newTailer(path string, h lineHandler, fsys resilience.FS) *Tailer {
	if fsys == nil {
		fsys = resilience.OS
	}
	return &Tailer{path: path, h: h, fsys: fsys, r: blockReader{size: tailBufSize}}
}

// Restore positions the tailer from a snapshot. Must be called before the
// first Poll. If the file has been rotated or truncated below the saved
// offset while the daemon was down, tailing restarts from the top of the
// current file (the rotated-away history is gone either way).
func (t *Tailer) Restore(s TailState) {
	t.resume = s
	t.rotations = s.Rotations
	t.parseErrs = s.ParseErrs
	t.h.restore(s.TSVFields, s.Closed)
}

// State returns the serializable tailer position. A restored position not
// yet applied (the file has not reopened since Restore) is reported as is,
// so snapshotting before the first successful open loses nothing.
func (t *Tailer) State() TailState {
	s := TailState{Offset: t.offset, Rotations: t.rotations, ParseErrs: t.parseErrs}
	if t.resume.Offset > 0 {
		s.Offset = t.resume.Offset
	}
	s.TSVFields, s.Closed = t.h.header()
	return s
}

// Poll reads everything appended since the last poll and emits each complete
// data line's record. It detects truncation (file shrank below our offset)
// and rename rotation (path now names a different file): the remainder of a
// rotated-away file is drained before switching to its replacement.
func (t *Tailer) Poll(emit func(Record) error) error {
	if err := t.setEmit(emit); err != nil {
		return err
	}
	return t.PollRows()
}

// setEmit installs the callback of a Record-surface Poll or Finish.
func (t *Tailer) setEmit(emit func(Record) error) error {
	h, ok := t.h.(*recordLines)
	if !ok {
		return fmt.Errorf("zeek: tail %s: typed tailer has no Record surface", t.path) //certchain:coldpath caller-bug error path
	}
	h.emit = emit
	return nil
}

// PollRows is Poll for a typed tailer: rows go to the callback it was built
// with.
func (t *Tailer) PollRows() error {
	if t.f == nil {
		if err := t.open(); err != nil || t.f == nil {
			return err
		}
	}
	cur, err := t.f.Stat()
	if err != nil {
		return fmt.Errorf("zeek: tail %s: %w", t.path, err) //certchain:coldpath I/O error path
	}
	if cur.Size() < t.offset+int64(len(t.r.carry)) {
		// Truncated in place: the writer restarted the file under us.
		if _, err := t.f.Seek(0, io.SeekStart); err != nil {
			return fmt.Errorf("zeek: tail %s: %w", t.path, err) //certchain:coldpath I/O error path
		}
		t.offset, t.r.carry = 0, nil
		t.h.reset()
		t.rotations++
	}
	named, statErr := t.fsys.Stat(t.path)
	rotated := statErr == nil && !os.SameFile(cur, named)
	if err := t.consume(); err != nil {
		return err
	}
	if !rotated {
		return nil
	}
	// The old file is fully drained; a dangling partial line is the writer's
	// final (unterminated) record — decode it before moving on.
	if err := t.FinishRows(); err != nil {
		return err
	}
	t.f.Close()
	t.f = nil
	t.offset = 0
	t.h.reset()
	t.rotations++
	if err := t.open(); err != nil || t.f == nil {
		return err
	}
	return t.consume()
}

// open opens the tailed path, applying any pending restore offset. A missing
// file is not an error — the writer just has not created it yet.
func (t *Tailer) open() error {
	f, err := t.fsys.Open(t.path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("zeek: tail %s: %w", t.path, err) //certchain:coldpath I/O error path
	}
	t.f, t.r.src = f, f
	if t.resume.Offset > 0 {
		fi, err := f.Stat()
		if err != nil {
			return fmt.Errorf("zeek: tail %s: %w", t.path, err) //certchain:coldpath I/O error path
		}
		if fi.Size() >= t.resume.Offset {
			if _, err := f.Seek(t.resume.Offset, io.SeekStart); err != nil {
				return fmt.Errorf("zeek: tail %s: %w", t.path, err) //certchain:coldpath I/O error path
			}
			t.offset = t.resume.Offset
		} else {
			// Shorter than where we left off: rotated while down.
			t.h.reset()
			t.rotations++
		}
		t.resume = TailState{}
	}
	return nil
}

// tailBufSize is the tailer's block size; the block only grows when a
// single line is longer.
const tailBufSize = 1 << 16

// consume cuts the file to its current end, handing every complete line to
// the handler as a view into the block. EOF means no more yet; a read error
// ends the poll after the lines read before it; a sink error re-holds every
// line after the one it stopped at in the carry. Either way the offset, the
// carry and the file position stay consistent.
func (t *Tailer) consume() error {
	for {
		err := t.r.cut(&t.blk)
		b := t.blk.buf[:t.blk.n]
		for pos := 0; pos < len(b); {
			i := bytes.IndexByte(b[pos:], '\n')
			line := b[pos : pos+i]
			pos += i + 1
			t.offset += int64(i) + 1
			if herr := t.line(line); herr != nil {
				// The carry follows the block's lines in its buffer.
				t.r.carry = t.blk.buf[pos : len(b)+len(t.r.carry)]
				return herr
			}
		}
		if err == io.EOF {
			if fi, serr := t.f.Stat(); serr == nil {
				t.size = fi.Size()
			}
			return nil
		}
		if err != nil {
			return fmt.Errorf("zeek: tail %s: %w", t.path, err) //certchain:coldpath I/O error path
		}
	}
}

// line strips the carriage return and applies the tailer's error policy:
// malformed lines are counted, not fatal — a daemon must outlive one corrupt
// record.
func (t *Tailer) line(line []byte) error {
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	err := t.h.handleLine(line)
	if err == errMalformedLine {
		t.parseErrs++
		return nil
	}
	return err
}

// Finish drains any unterminated final line. Call once when tailing ends for
// good (daemon shutdown after the writer closed the stream).
func (t *Tailer) Finish(emit func(Record) error) error {
	if err := t.setEmit(emit); err != nil {
		return err
	}
	return t.FinishRows()
}

// FinishRows is Finish for a typed tailer. It decodes the held lines —
// those a sink error left, then a dangling unterminated final line — for a
// file that has reached its definite end (rotation or shutdown). Mid-record
// truncation shows up as a parse error and is counted, matching the batch
// readers' tolerance.
func (t *Tailer) FinishRows() error {
	for len(t.r.carry) > 0 {
		line, rest, _ := bytes.Cut(t.r.carry, []byte{'\n'})
		t.offset += int64(len(t.r.carry) - len(rest))
		t.r.carry = rest
		if err := t.line(line); err != nil {
			return err
		}
	}
	return nil
}

// Closed reports whether the stream announced its end (#close).
func (t *Tailer) Closed() bool { return t.h.Closed() }

// LagBytes is how far the last poll's file end is beyond what has been
// processed — 0 when fully caught up.
func (t *Tailer) LagBytes() int64 {
	lag := t.size - t.offset - int64(len(t.r.carry))
	if lag < 0 {
		return 0
	}
	return lag
}

// Rotations counts detected rotations and truncations.
func (t *Tailer) Rotations() int64 { return t.rotations }

// ParseErrors counts malformed lines that were dropped.
func (t *Tailer) ParseErrors() int64 { return t.parseErrs }

// Offset is the byte position of fully processed lines in the current file.
// A restored position not yet applied is reported as is, as State does, so a
// restored daemon shows the offset it will resume from.
func (t *Tailer) Offset() int64 {
	if t.resume.Offset > 0 {
		return t.resume.Offset
	}
	return t.offset
}

// Close releases the underlying file handle.
func (t *Tailer) Close() error {
	if t.f == nil {
		return nil
	}
	err := t.f.Close()
	t.f = nil
	return err
}
