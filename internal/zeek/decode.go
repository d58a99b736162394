//certchain:hotpath — the fast join decodes every ssl.log/x509.log row.

package zeek

import (
	"fmt"
	"io"
	"strconv"

	"certchains/internal/certmodel"
	"certchains/internal/dn"
)

// FastJoin is the zero-allocation counterpart of Join: it streams ssl.log
// and x509.log in Zeek's TSV format through byte-slice decoders — no
// intermediate Record maps, no per-field string allocation — and produces
// the same joined connections in the same order with the same per-row and
// stream errors, byte for byte (pinned by the differential fuzzers in
// equiv_fuzz_test.go).
//
// Allocation economy comes from three reuses, which change the retention
// contract relative to Join:
//
//   - The *Connection and its SSL record are pooled: they are only valid
//     until fn returns, as is the CertChainFUIDs slice. Field string values
//     (and the Chain) may be retained freely.
//   - Chain values are canonical: every connection delivering the same
//     certificate sequence shares one Chain slice (read-only by contract,
//     like the *Meta values it holds).
//   - Repeated strings (DNs, SNIs, addresses, algorithm names) are
//     interned per call; certificates parse their DNs once per distinct
//     string.
func FastJoin(ssl, x509 io.Reader, fn func(c *Connection, err error) error) error {
	return fastJoin(false, ssl, x509, fn)
}

// FastJoinJSON is FastJoin for Zeek's ND-JSON log format. Well-formed flat
// records decode through a byte-slice tokenizer; any line outside that
// shape (escapes, nested values, type surprises, malformed JSON) re-parses
// through the legacy full-line path, so behaviour — including error text —
// is identical to JoinJSON on every input.
func FastJoinJSON(ssl, x509 io.Reader, fn func(c *Connection, err error) error) error {
	return fastJoin(true, ssl, x509, fn)
}

func fastJoin(json bool, ssl, x509 io.Reader, fn func(c *Connection, err error) error) error {
	j := &fastJoiner{chains: make(map[string]certmodel.Chain)}
	certs, err := j.indexX509(newLineScanner(x509, json), NewRowDecoder(json, &j.strs))
	if err != nil {
		return err
	}
	return j.joinSSL(newLineScanner(ssl, json), NewRowDecoder(json, &j.strs), certs, fn)
}

// fastJoiner carries the per-call join state: the interners the two
// streams' decoders share, the canonical chain cache and the pooled
// connection.
type fastJoiner struct {
	strs   certmodel.Interner
	dns    dn.Interner
	chains map[string]certmodel.Chain
	keyBuf []byte
	conn   Connection
}

// appendFUIDKey appends the chain-cache key of a fuid sequence:
// length-prefixed, so no two sequences share a key.
func appendFUIDKey(dst []byte, fuids []string) []byte {
	for _, f := range fuids {
		dst = strconv.AppendInt(dst, int64(len(f)), 10)
		dst = append(dst, ':')
		dst = append(dst, f...)
	}
	return dst
}

// chainFor resolves a fuid list against the certificate index, returning
// the canonical shared Chain for that sequence. The per-row error for an
// unknown fuid matches JoinRecords exactly.
func (j *fastJoiner) chainFor(certs map[string]*certmodel.Meta, uid string, fuids []string) (certmodel.Chain, error) {
	if len(fuids) == 0 {
		return nil, nil
	}
	j.keyBuf = appendFUIDKey(j.keyBuf[:0], fuids)
	if ch, ok := j.chains[string(j.keyBuf)]; ok {
		return ch, nil
	}
	ch := make(certmodel.Chain, 0, len(fuids))
	for _, f := range fuids {
		m, ok := certs[f]
		if !ok {
			return nil, fmt.Errorf("zeek: connection %s references unknown certificate %s", uid, f) //certchain:coldpath per-row join-gap error path
		}
		ch = append(ch, m)
	}
	j.chains[string(j.keyBuf)] = ch
	return ch, nil
}

// joinSSL walks the ssl stream — the joined-row tail of JoinRecords: decode,
// resolve the chain, route the row or its per-row error to the callback.
func (j *fastJoiner) joinSSL(s *lineScanner, d *RowDecoder, certs map[string]*certmodel.Meta, fn func(*Connection, error) error) error {
	for {
		ok, err := s.scan()
		if err != nil || !ok {
			return err
		}
		st, rowErr := d.decodeSSL(s.cur)
		switch st {
		case rowNone:
		case rowOK:
			ch, joinErr := j.chainFor(certs, d.ssl.UID, d.ssl.CertChainFUIDs)
			if joinErr != nil {
				err = fn(nil, joinErr)
				break
			}
			j.conn = Connection{SSL: &d.ssl, Chain: ch}
			err = fn(&j.conn, nil)
		case rowRecordErr:
			err = fn(nil, rowErr)
		default:
			err = s.reject(st, rowErr, d)
		}
		if err != nil {
			return err
		}
	}
}

// indexX509 reads the whole x509 stream into the certificate index — the
// indexX509Records loop: a row missing ts or id ends the stream, duplicates
// keep the first record, and DNs are parsed only for first-seen ids.
func (j *fastJoiner) indexX509(s *lineScanner, d *RowDecoder) (map[string]*certmodel.Meta, error) {
	out := make(map[string]*certmodel.Meta)
	for {
		ok, err := s.scan()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		st, rowErr := d.decodeX509(s.cur)
		switch st {
		case rowNone:
		case rowOK:
			if _, dup := out[string(d.x509.id)]; dup {
				continue // Zeek logs a certificate once per observation; first wins
			}
			m, err := d.x509.meta(&j.dns)
			if err != nil {
				return nil, err
			}
			out[string(m.FP)] = m
		case rowRecordErr:
			return nil, rowErr
		default:
			if err := s.reject(st, rowErr, d); err != nil {
				return nil, err
			}
		}
	}
}
