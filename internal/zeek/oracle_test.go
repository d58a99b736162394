package zeek

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"testing"

	"certchains/internal/certmodel"
	"certchains/internal/dn"
)

// The batch oracle the fast paths are pinned to: whole-stream readers that
// yield generic Records, and the map join over them. The readers are the
// production LineDecoders plus the batch stream policy and nothing else; the
// join parses every row with Parse*Record and ToMeta. FastJoin, its block
// pipeline and the typed tailers must match them byte for byte, error text
// included (equiv_fuzz_test.go, block_test.go).

// Reader reads one log stream into generic Records.
type Reader struct{ next func() (Record, error) }

// Read returns the next record or io.EOF.
func (r *Reader) Read() (Record, error) { return r.next() }

// ReadAll drains the reader.
func (r *Reader) ReadAll() ([]Record, error) {
	var out []Record
	for {
		rec, err := r.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

// NewReader reads a Zeek TSV stream. It tolerates what a file still being
// written ends with: a missing #close, and a final record fragment without
// the right field count, which it skips (a directive fragment decodes to
// nothing, like any directive). Only newline-terminated malformed lines are
// errors.
func NewReader(src io.Reader) *Reader {
	br, dec, eof := bufio.NewReaderSize(src, 1<<16), NewTSVDecoder(), false
	return &Reader{func() (Record, error) {
		for !eof {
			line, err := br.ReadString('\n')
			if err != nil && err != io.EOF {
				return nil, fmt.Errorf("zeek: read: %w", err)
			}
			eof = err == io.EOF
			cut := !strings.HasSuffix(line, "\n")
			line = strings.TrimSuffix(strings.TrimSuffix(line, "\n"), "\r")
			rec, err := dec.Decode(line)
			if err != nil && cut && len(dec.fields) > 0 {
				continue
			}
			if rec != nil || err != nil {
				return rec, err
			}
		}
		return nil, io.EOF
	}}
}

// NewJSONReader reads an ND-JSON stream line by line, with bufio.Scanner's
// line splitting and a 16 MiB line limit.
func NewJSONReader(src io.Reader) *Reader {
	s, dec := bufio.NewScanner(src), NewJSONDecoder()
	s.Buffer(make([]byte, 0, 1<<16), 1<<24)
	return &Reader{func() (Record, error) {
		for s.Scan() {
			if rec, err := dec.Decode(s.Text()); rec != nil || err != nil {
				return rec, err
			}
		}
		if err := s.Err(); err != nil {
			return nil, fmt.Errorf("zeek: json scan: %w", err)
		}
		return nil, io.EOF
	}}
}

// TestOracleStreamPolicy replays, against the fast join, one input per rule
// of the batch stream policy, error line numbers included.
func TestOracleStreamPolicy(t *testing.T) {
	x509 := tsvX509Header + tsvSeedX509Row
	for _, ssl := range []string{
		tsvSSLHeader + "\n1.0\tonly-two\n" + tsvSeedSSLRow, // terminated: an error
		"1.0\tCu1",                               // unterminated, but no header yet: an error
		tsvSSLHeader + tsvSeedSSLRow + "1.0\tCu", // unterminated fragment: skipped
	} {
		diffJoins(t, Join, FastJoin, ssl, x509)
	}
	diffJoins(t, JoinJSON, FastJoinJSON, "\n\r\n"+jsonSSLRow+`{"ts":`+"\n", jsonX509Row)
}

// Join joins TSV ssl.log and x509.log streams. The x509 stream is indexed
// first — the first record of an id wins, as Zeek logs a certificate once
// per observation — and any error there ends the join. An ssl row that does
// not parse or references an unknown certificate goes to fn as an error and
// the join continues; a stream error or fn's error ends it.
func Join(ssl, x509 io.Reader, fn func(c *Connection, err error) error) error {
	return JoinRecords(NewReader(ssl), NewReader(x509), fn)
}

// JoinJSON is Join for ND-JSON streams.
func JoinJSON(ssl, x509 io.Reader, fn func(c *Connection, err error) error) error {
	return JoinRecords(NewJSONReader(ssl), NewJSONReader(x509), fn)
}

// JoinRecords joins two record streams.
func JoinRecords(ssl, x509 *Reader, fn func(c *Connection, err error) error) error {
	certs, err := indexX509Records(x509)
	if err != nil {
		return err
	}
	for {
		rec, err := ssl.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		conn := &Connection{}
		if conn.SSL, err = ParseSSLRecord(rec); err == nil {
			for _, fuid := range conn.SSL.CertChainFUIDs {
				m, ok := certs[fuid]
				if !ok {
					err = fmt.Errorf("zeek: connection %s references unknown certificate %s", conn.SSL.UID, fuid)
					break
				}
				conn.Chain = append(conn.Chain, m)
			}
		}
		if err != nil {
			conn = nil
		}
		if err := fn(conn, err); err != nil {
			return err
		}
	}
}

// IndexX509 reads a TSV x509.log stream into a fingerprint-keyed map.
func IndexX509(x509 io.Reader) (map[string]*certmodel.Meta, error) {
	return indexX509Records(NewReader(x509))
}

func indexX509Records(r *Reader) (map[string]*certmodel.Meta, error) {
	out := make(map[string]*certmodel.Meta)
	for {
		rec, err := r.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		xr, err := ParseX509Record(rec)
		if err != nil {
			return nil, err
		}
		if _, dup := out[xr.ID]; dup {
			continue
		}
		m, err := xr.ToMeta()
		if err != nil {
			return nil, err
		}
		out[xr.ID] = m
	}
}

// ToMeta converts an x509.log record to the pipeline certificate model. The
// record ID becomes the fingerprint, exactly how the paper cross-references
// certificates without raw DER.
func (r *X509Record) ToMeta() (*certmodel.Meta, error) {
	issuer, err := dn.Parse(r.Issuer)
	if err != nil {
		return nil, fmt.Errorf("zeek: x509 %s: bad issuer: %w", r.ID, err)
	}
	subject, err := dn.Parse(r.Subject)
	if err != nil {
		return nil, fmt.Errorf("zeek: x509 %s: bad subject: %w", r.ID, err)
	}
	m := &certmodel.Meta{
		FP:        certmodel.Fingerprint(r.ID),
		Issuer:    issuer,
		Subject:   subject,
		SerialHex: strings.ToLower(r.Serial),
		NotBefore: r.NotValidBefore,
		NotAfter:  r.NotValidAfter,
		KeyAlg:    certmodel.KeyAlgorithm(r.KeyType),
		KeyBits:   r.KeyLength,
		SigAlg:    r.SigAlg,
		SAN:       r.SANDNS,
	}
	switch {
	case r.BasicConstraintsCA == nil:
		m.BC = certmodel.BCAbsent
	case *r.BasicConstraintsCA:
		m.BC = certmodel.BCTrue
	default:
		m.BC = certmodel.BCFalse
	}
	return m, nil
}
