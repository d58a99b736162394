//certchain:hotpath — the fast join decodes every ssl.log/x509.log row.

package zeek

import (
	"fmt"
	"io"
	"runtime"

	"certchains/internal/certmodel"
	"certchains/internal/dn"
)

// Connection is an ssl.log row joined with its certificate chain, the unit
// the analysis pipeline consumes.
type Connection struct {
	SSL   *SSLRecord
	Chain certmodel.Chain
}

// FastJoin is the batch join: it streams ssl.log and x509.log in Zeek's TSV
// format through byte-slice decoders — no intermediate Record maps, no
// per-field string allocation — and produces the same joined connections in
// the same order with the same per-row and stream errors, byte for byte, as
// the map join over LineDecoder Records it is pinned to (the test oracle in
// oracle_test.go, checked by the differential fuzzers in equiv_fuzz_test.go).
// An x509 row the index rejects, or a stream's read or format error, ends the
// join; an ssl row that is no valid record or references an unknown
// certificate goes to fn as an error and the join continues.
//
// Allocation economy comes from three reuses, which change the retention
// contract relative to the map join:
//
//   - The *Connection and its SSL record are pooled: they are only valid
//     until fn returns, as is the CertChainFUIDs slice — and so are
//     FastJoinGroups' *ConnGroup and its Key. Field string values (and the
//     Chain) may be retained freely.
//   - Chain values are canonical: every connection delivering the same
//     certificate sequence shares one Chain slice (read-only by contract,
//     like the *Meta values it holds).
//   - Repeated strings (DNs, SNIs, addresses, algorithm names) are
//     interned per call; certificates parse their DNs once per distinct
//     string.
//
// ssl.log is decoded ahead of fn on runtime.GOMAXPROCS(0) worker goroutines
// (block.go); fn itself always runs on the calling goroutine, in file order,
// and the join returns only after every goroutine it started has exited.
func FastJoin(ssl, x509 io.Reader, fn func(c *Connection, err error) error) error {
	return fastJoin(false, ssl, x509, fn)
}

// FastJoinJSON is FastJoin for Zeek's ND-JSON log format. Well-formed flat
// records decode through a byte-slice tokenizer; any line outside that
// shape (escapes, nested values, type surprises, malformed JSON) re-parses
// through the legacy full-line path, so behaviour — including error text —
// is identical to the ND-JSON map join on every input.
func FastJoinJSON(ssl, x509 io.Reader, fn func(c *Connection, err error) error) error {
	return fastJoin(true, ssl, x509, fn)
}

func fastJoin(json bool, ssl, x509 io.Reader, fn func(c *Connection, err error) error) error {
	return fastJoinBlocks(json, ssl, x509, fn, blockSize, runtime.GOMAXPROCS(0))
}

// fastJoinBlocks is fastJoin with its block size and worker count explicit —
// the seam tests use to put block boundaries anywhere. Its replay hands each
// block's rows to fn in file order: intern, resolve the chain, call fn.
func fastJoinBlocks(json bool, ssl, x509 io.Reader, fn func(c *Connection, err error) error, size, workers int) error {
	return joinBlocks(json, ssl, x509, size, workers, false, func(j *fastJoiner, blk *block) error {
		d := j.ssl
		for i := range blk.rows {
			row := &blk.rows[i]
			if row.err != nil {
				if err := fn(nil, row.err); err != nil {
					return err
				}
				continue
			}
			line := blk.line(row)
			d.materializeSSL(line, &row.view)
			ch, err := j.chain(line, &row.view)
			if err != nil {
				err = fn(nil, err)
			} else {
				if ch != nil { // a chain's fingerprints are its fuids
					d.fuids = d.fuids[:0]
					for _, m := range ch {
						d.fuids = append(d.fuids, string(m.FP))
					}
					d.ssl.CertChainFUIDs = d.fuids
				}
				j.conn = Connection{SSL: &d.ssl, Chain: ch}
				err = fn(&j.conn, nil)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// fastJoiner carries the per-call join state: the interners the two
// streams' decoders share, the certificate index, the canonical chain cache,
// the decoder that materializes ssl rows and the pooled connection.
type fastJoiner struct {
	strs   certmodel.Interner
	dns    dn.Interner
	certs  map[string]*certmodel.Meta
	chains map[string]certmodel.Chain
	ssl    *RowDecoder
	conn   Connection
}

// chain resolves the fuids of a row view of line against the certificate
// index, returning the canonical shared Chain for that sequence. The cache
// key is the comma list of fuids — no fuid holds a comma — so a hit interns
// nothing. The error for an unknown fuid matches the map join's exactly.
func (j *fastJoiner) chain(line []byte, v *sslView) (certmodel.Chain, error) {
	key := v.fuids.of(line)
	if len(key) == 0 {
		return nil, nil
	}
	if ch, ok := j.chains[string(key)]; ok {
		return ch, nil
	}
	d := j.ssl
	d.fuids = d.appendVector(d.fuids[:0], key)
	ch := make(certmodel.Chain, 0, len(d.fuids))
	for _, f := range d.fuids {
		m, ok := j.certs[f]
		if !ok {
			return nil, fmt.Errorf("zeek: connection %s references unknown certificate %s", v.uid.of(line), f) //certchain:coldpath per-row join-gap error path
		}
		ch = append(ch, m)
	}
	j.chains[string(key)] = ch
	return ch, nil
}

// indexX509 reads the whole x509 stream into the certificate index, one
// block at a time on the calling goroutine — the map join's index loop: a
// row missing ts or id ends the stream, duplicates keep the first record,
// and DNs are parsed only for first-seen ids.
func (j *fastJoiner) indexX509(r *blockReader, blk *block, d *RowDecoder) (map[string]*certmodel.Meta, error) {
	out := make(map[string]*certmodel.Meta)
	for base := 0; ; {
		r.fill(blk)
		w := lineWalk{buf: blk.buf[:blk.n], json: d.json}
		for {
			line, st := w.next()
			if st == rowNone {
				break
			}
			var rowErr error
			if st == rowOK {
				st, rowErr = d.decodeX509(line)
			}
			switch {
			case st == rowOK:
				if _, dup := out[string(d.x509.id)]; dup {
					continue // Zeek logs a certificate once per observation; first wins
				}
				m, err := d.x509.meta(&j.dns)
				if err != nil {
					return nil, err
				}
				out[string(m.FP)] = m
			case st == rowRecordErr:
				return nil, rowErr
			case w.fatal(st):
				return nil, d.badLine(&w, st, rowErr).err(base)
			}
		}
		if blk.err != nil {
			return nil, blk.err
		}
		if blk.final {
			return out, nil
		}
		base += w.line
	}
}
