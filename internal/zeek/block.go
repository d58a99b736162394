//certchain:hotpath — the block pipeline cuts, decodes and replays every ssl.log line of a batch join.

package zeek

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"certchains/internal/certmodel"
)

// Block-parallel batch decode. FastJoin walks ssl.log in three stages:
//
//   - one reader goroutine cuts the stream into blocks of whole lines and
//     stamps each with the TSV header in effect at its first line;
//   - workers decode every line of a block into an sslView — split,
//     unescape, number and time parse — with no shared state, and for
//     FastJoinGroups also fold the block's rows into groups (group.go);
//   - the calling goroutine replays the blocks in file order: it interns
//     each view (or group) through the join's one interner, resolves its
//     chain through the one chain cache, applies the batch error policy with
//     stream line numbers and calls fn.
//
// A block belongs to one stage at a time and moves by channel: the reader
// fills it, a worker rewrites it (in-place unescapes) and appends its views,
// the replay reads both and hands it back to the reader. At most workers+2
// blocks exist, so memory is bounded by the block size — except that a line
// longer than a block grows the block holding it.

// blockSize is a block's initial capacity.
const blockSize = 128 << 10

// maxBlock bounds a block so that 32-bit spans address it: a line of 2 GiB
// or more is a read error, bufio.ErrTooLong.
const maxBlock = math.MaxInt32

// maxJSONLine is the batch ND-JSON line limit, bufio.Scanner's token limit
// as the oracle reader sets it: a line at or beyond this length (excluding
// the newline) is the same too-long error the Scanner reports.
const maxJSONLine = 1 << 24

// block is a run of whole lines of one stream, with what decoding them
// produced.
type block struct {
	buf []byte // buf[:n] are the lines; every one newline-terminated unless final
	n   int
	// final marks the stream's last block, whose last line may be
	// unterminated; err is the read error that ended the stream there.
	final bool
	err   error
	// fields is the TSV #fields header in effect at the block's first line.
	fields []string

	// Worker output: the rows, the number of lines counted, and the line
	// decoding stopped at, if any.
	rows  []sslRow
	lines int
	bad   badLine
	done  chan struct{}
	// Grouping output: the groups in first-row order, and their identities.
	groups []ConnGroup
	keys   []byte
	// tsv holds the TSV lines the block's ND-JSON fallback rows were
	// transcoded into.
	tsv []byte
}

// sslRow is one decoded data line of a block: its view, or the record error
// ParseSSLRecord would report for it.
type sslRow struct {
	view sslView
	off  uint32 // the line's offset in the block's buf, or in its tsv
	next int32  // the next row of the row's group, or -1
	tsv  bool   // whether the view spans the block's tsv
	err  error
}

// line returns the bytes row's view spans.
func (blk *block) line(row *sslRow) []byte {
	if row.tsv {
		return blk.tsv[row.off:]
	}
	return blk.buf[row.off:]
}

// minLine is the line length a new block's rows are sized for: ssl.log
// lines are longer, so a block's rows are allocated once per pass.
const minLine = 128

func newBlock(size int) *block {
	return &block{
		buf:  make([]byte, size),
		rows: make([]sslRow, 0, size/minLine),
		done: make(chan struct{}, 1),
	}
}

// blockReader cuts a log stream into blocks of whole lines: the batch join's
// reader stage (fill), and under its own end-of-stream rules the Tailer.
type blockReader struct {
	src  io.Reader
	json bool
	size int // bytes read into a block, unless one line is longer
	// carry is the partial line after the last block's final newline. It
	// aliases that block's buffer past its lines, where no worker writes;
	// the next cut copies it out before anything can refill the block.
	carry []byte
	hdr   *RowDecoder
}

func newBlockReader(src io.Reader, json bool, size int) *blockReader {
	return &blockReader{src: src, json: json, size: size, hdr: NewRowDecoder(json, nil)}
}

// cut loads blk with the carried partial line, then reads until size bytes
// are in — or, while the block holds no newline, twice as many as the last
// try, growing the buffer, so a line longer than a block grows the block
// holding it — or until the source stops. blk.buf[:blk.n] are then whole
// lines and the carry is what follows the last newline. The error is what
// stopped the source, io.EOF or a read error, or nil; what the end of the
// stream means is the caller's policy.
func (r *blockReader) cut(blk *block) error {
	limit := r.size
	for limit <= len(r.carry) {
		limit *= 2
	}
	limit = min(limit, maxBlock)
	if len(blk.buf) < limit {
		blk.buf = make([]byte, limit) //certchain:coldpath a line longer than a block, once per growth
	}
	blk.n = copy(blk.buf, r.carry)
	for {
		err := r.read(blk, limit)
		i := bytes.LastIndexByte(blk.buf[:blk.n], '\n')
		if err == nil && i < 0 {
			if limit == maxBlock {
				err = bufio.ErrTooLong
			} else {
				if limit = min(2*limit, maxBlock); len(blk.buf) < limit {
					grown := make([]byte, limit) //certchain:coldpath a line longer than a block, once per growth
					copy(grown, blk.buf[:blk.n])
					blk.buf = grown
				}
				continue
			}
		}
		r.carry = blk.buf[i+1 : blk.n]
		blk.n = i + 1
		return err
	}
}

// fill is the batch reader's cut: at the stream's end the block is final and
// keeps the unterminated final line — unless a read error ended the stream,
// which drops it, as the batch readers drop the line a failed read cut. The
// block is stamped with the TSV header in effect at its first line.
func (r *blockReader) fill(blk *block) {
	blk.fields = r.hdr.fields
	err := r.cut(blk)
	blk.final, blk.err = err != nil, nil
	switch {
	case err == io.EOF:
		blk.n += len(r.carry)
	case err != nil:
		blk.err = readErr(r.json, err)
	}
	if blk.final {
		r.carry = nil
	}
	r.header(blk)
}

// read fills blk's buffer to limit, returning nil once it is full or what
// stopped the source first. Like bufio, a source that returns neither data
// nor an error 100 times in a row fails with io.ErrNoProgress.
func (r *blockReader) read(blk *block, limit int) error {
	for empty := 0; blk.n < limit; {
		n, err := r.src.Read(blk.buf[blk.n:limit])
		blk.n += n
		switch {
		case err != nil:
			return err
		case n > 0:
			empty = 0
		default:
			if empty++; empty == 100 {
				return io.ErrNoProgress
			}
		}
	}
	return nil
}

// readErr wraps a stream's read error in the batch readers' text.
//
//certchain:coldpath I/O error path
func readErr(json bool, err error) error {
	if json {
		return fmt.Errorf("zeek: json scan: %w", err)
	}
	return fmt.Errorf("zeek: read: %w", err)
}

// header folds the TSV directives of blk's lines into the reader's header,
// so the next block starts with the header in effect after them. A
// directive is any line whose first byte is '#'; the unterminated fragment
// a final block may end with is not one yet.
func (r *blockReader) header(blk *block) {
	if r.json {
		return
	}
	b := blk.buf[:blk.n]
	i := 0
	if len(b) == 0 || b[0] != '#' {
		if i = bytes.Index(b, []byte("\n#")); i < 0 {
			return
		}
		i++
	}
	for {
		e := bytes.IndexByte(b[i:], '\n')
		if e < 0 {
			return
		}
		line := b[i : i+e]
		if n := len(line); line[n-1] == '\r' {
			line = line[:n-1]
		}
		r.hdr.directive(line) //certchain:coldpath once per directive line
		i += e
		j := bytes.Index(b[i:], []byte("\n#"))
		if j < 0 {
			return
		}
		i += j + 1
	}
}

// lineWalk steps through a block's lines with the batch readers' line
// accounting: TSV counts non-empty lines and skips a directive fragment cut
// mid-write; ND-JSON counts every terminated line, as the Scanner does.
type lineWalk struct {
	buf        []byte
	json       bool
	pos        int
	line       int  // lines counted so far
	off        int  // offset of the current line
	terminated bool // whether a newline ended the current line
}

// next returns the next line worth decoding, without its newline and
// trailing \r, with status rowOK; rowNone at the block's end; rowTooLong for
// an ND-JSON line the Scanner rejects.
func (w *lineWalk) next() ([]byte, rowStatus) {
	for w.pos < len(w.buf) {
		start, end := w.pos, len(w.buf)
		w.terminated = false
		if i := bytes.IndexByte(w.buf[start:], '\n'); i >= 0 {
			end, w.terminated = start+i, true
		}
		w.pos = end + 1
		row := w.buf[start:end]
		// bufio.Scanner rejects the token before stripping its \r.
		if w.json && len(row) >= maxJSONLine {
			return nil, rowTooLong
		}
		if n := len(row); n > 0 && row[n-1] == '\r' {
			row = row[:n-1]
		}
		if w.json && w.terminated || len(row) > 0 {
			w.line++
		}
		if len(row) == 0 || !w.json && row[0] == '#' && !w.terminated {
			continue
		}
		w.off = start
		return row, rowOK
	}
	return nil, rowNone
}

// fatal reports whether a line's status ends a batch stream: the legacy
// readers' stream errors, except the field-count mismatch of an unterminated
// final line — a fragment a writer left mid-record, not data yet.
func (w *lineWalk) fatal(st rowStatus) bool {
	switch st {
	case rowNone, rowOK, rowRecordErr:
		return false
	case rowFieldCount:
		return w.terminated
	}
	return true
}

// badLine is the line a block's decode stopped at, kept until the replay
// reaches it and knows its stream line number.
type badLine struct {
	st           rowStatus // rowNone: the block decoded to its end
	line         int       // counted within the block
	cause        error
	cols, fields int
}

func (d *RowDecoder) badLine(w *lineWalk, st rowStatus, cause error) badLine {
	return badLine{st: st, line: w.line, cause: cause, cols: len(d.cols), fields: len(d.fields)}
}

// err is the stream error of the bad line, base lines into the stream.
//
//certchain:coldpath malformed-stream error path
func (b badLine) err(base int) error {
	line := base + b.line
	switch b.st {
	case rowNoHeader:
		return fmt.Errorf("zeek: line %d: data before #fields header", line)
	case rowFieldCount:
		return fmt.Errorf("zeek: line %d: %d values for %d fields", line, b.cols, b.fields)
	case rowBadJSON:
		return fmt.Errorf("zeek: json line %d: %w", line, b.cause)
	case rowTooLong:
		return fmt.Errorf("zeek: json scan: %w", bufio.ErrTooLong)
	}
	return nil
}

// decodeBlock is a worker's half of the ssl walk: every line of blk into a
// row, stopping at the first line that ends the stream.
func (d *RowDecoder) decodeBlock(blk *block) {
	d.restore(blk.fields, false)
	blk.rows, blk.bad, blk.tsv = blk.rows[:0], badLine{}, blk.tsv[:0]
	w := lineWalk{buf: blk.buf[:blk.n], json: d.json}
	for {
		line, st := w.next()
		if st == rowNone {
			break
		}
		var err error
		if st == rowOK {
			if len(blk.rows) == cap(blk.rows) {
				// Lines shorter than minLine on average: grow for the lines
				// left plus half again in one step, not by append's.
				n := len(blk.rows) + bytes.Count(w.buf[w.off:], []byte{'\n'}) + 1
				blk.rows = slices.Grow(blk.rows, n+n/2-len(blk.rows))
			}
			blk.rows = append(blk.rows, sslRow{off: uint32(w.off)})
			row := &blk.rows[len(blk.rows)-1]
			if st, err = d.viewSSL(line, &row.view); st == rowRecordErr {
				row.err = err
			} else if st == rowOK && len(d.tsv) > 0 {
				row.off, row.tsv = uint32(len(blk.tsv)), true
				blk.tsv = append(blk.tsv, d.tsv...)
			}
			if st != rowOK && st != rowRecordErr {
				blk.rows = blk.rows[:len(blk.rows)-1]
			}
		}
		if w.fatal(st) {
			blk.bad = d.badLine(&w, st, err)
			break
		}
	}
	blk.lines = w.line
}

// joinBlocks indexes the x509 stream, then walks the ssl stream — the
// joined-row tail of the map join — with workers decoding, and grouping when
// grouped, goroutines ahead of the caller's replay, which hands each block to
// each in file order. It returns only after every goroutine it started has
// exited, so the stream is never read after it returns.
func joinBlocks(json bool, ssl, x509 io.Reader, size, workers int, grouped bool, each func(*fastJoiner, *block) error) error {
	j := &fastJoiner{chains: make(map[string]certmodel.Chain)}
	j.ssl = NewRowDecoder(json, &j.strs)
	spare := newBlock(size)
	var err error
	if j.certs, err = j.indexX509(newBlockReader(x509, json, size), spare, NewRowDecoder(json, &j.strs)); err != nil {
		return err
	}
	r := newBlockReader(ssl, json, size)
	// Every queue can hold every block there will be, so no send blocks.
	nblocks := workers + 2
	free := make(chan *block, nblocks)
	work := make(chan *block, nblocks)
	ordered := make(chan *block, nblocks)
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1 + workers)
	go func() {
		defer wg.Done()
		r.feed(spare, nblocks, free, work, ordered, quit)
	}()
	for range workers {
		go func() {
			defer wg.Done()
			decodeBlocks(NewRowDecoder(r.json, nil), grouped, work, quit)
		}()
	}
	err = j.replay(ordered, free, each)
	close(quit)
	wg.Wait()
	return err
}

// feed is the reader stage: fill blocks and queue each for a worker and, in
// file order, for the replay, making up to nblocks blocks before it waits
// for the replay to free one.
func (r *blockReader) feed(blk *block, nblocks int, free <-chan *block, work, ordered chan<- *block, quit <-chan struct{}) {
	defer close(work)
	defer close(ordered)
	for made := 1; ; {
		r.fill(blk)
		ordered <- blk
		work <- blk
		if blk.final {
			return
		}
		select {
		case blk = <-free:
		case <-quit:
			return
		default:
			if made < nblocks {
				made++
				blk = newBlock(r.size)
				continue
			}
			select {
			case blk = <-free:
			case <-quit:
				return
			}
		}
	}
}

// decodeBlocks is a worker: decode blocks, and group their rows when
// grouped, until the queue closes or the replay quits.
func decodeBlocks(d *RowDecoder, grouped bool, work <-chan *block, quit <-chan struct{}) {
	var t groupTable
	for {
		select {
		case blk, ok := <-work:
			if !ok {
				return
			}
			d.decodeBlock(blk)
			if grouped {
				t.group(blk)
			}
			blk.done <- struct{}{}
		case <-quit:
			return
		}
	}
}

// replay is the calling goroutine's half: each block in file order to each,
// then the block's stream error, if any, and the block back to the reader.
func (j *fastJoiner) replay(ordered <-chan *block, free chan<- *block, each func(*fastJoiner, *block) error) error {
	base := 0
	for blk := range ordered {
		<-blk.done
		if err := each(j, blk); err != nil {
			return err
		}
		if blk.bad.st != rowNone {
			return blk.bad.err(base)
		}
		if blk.err != nil {
			return blk.err
		}
		base += blk.lines
		free <- blk
	}
	return nil
}
