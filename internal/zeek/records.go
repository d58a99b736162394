//certchain:hotpath — record parsing runs once per ssl.log/x509.log row.

package zeek

import (
	"errors"
	"io"
	"strconv"
	"strings"
	"time"

	"certchains/internal/certmodel"
)

// Static parse errors: these fire per malformed record on the decode hot
// path, so they must not allocate a formatted string per row.
var (
	errSSLMissingTS  = errors.New("zeek: ssl record missing ts")
	errSSLMissingUID = errors.New("zeek: ssl record missing uid")
	errX509MissingTS = errors.New("zeek: x509 record missing ts")
	errX509MissingID = errors.New("zeek: x509 record missing id")
)

// SSLRecord is one ssl.log row: a TLS connection observation.
type SSLRecord struct {
	TS             time.Time
	UID            string
	OrigH          string
	OrigP          int
	RespH          string
	RespP          int
	Version        string
	Cipher         string
	ServerName     string // SNI; empty when the client sent none
	Resumed        bool
	Established    bool
	CertChainFUIDs []string // x509.log ids of the delivered chain, leaf first
}

// sslFields is the ssl.log schema (the subset of Zeek's ssl.log the paper
// uses, in Zeek's field order).
var sslFields = []string{
	"ts", "uid", "id.orig_h", "id.orig_p", "id.resp_h", "id.resp_p",
	"version", "cipher", "server_name", "resumed", "established",
	"cert_chain_fuids",
}

var sslTypes = []string{
	"time", "string", "addr", "port", "addr", "port",
	"string", "string", "string", "bool", "bool",
	"vector[string]",
}

// LogWriter writes one capture's ssl.log and x509.log pair in either format:
// Zeek's TSV layout, headers stamped with open, or ND-JSON, one object per
// record (LogAscii::use_json=T) with the same field names.
type LogWriter struct {
	json      bool
	ssl, x509 *Writer
}

// NewLogWriter creates a writer pair: ND-JSON when ndjson is set, TSV opened
// at open otherwise.
func NewLogWriter(ndjson bool, ssl, x509 io.Writer, open time.Time) *LogWriter {
	l := &LogWriter{
		json: ndjson,
		ssl:  NewWriter(ssl, Header{Path: "ssl", Fields: sslFields, Types: sslTypes, Open: open}),
		x509: NewWriter(x509, Header{Path: "x509", Fields: x509Fields, Types: x509Types, Open: open}),
	}
	// An ND-JSON stream has no header block: its writers start opened.
	l.ssl.opened, l.x509.opened = ndjson, ndjson
	return l
}

// WriteSSL emits one connection record.
func (l *LogWriter) WriteSSL(r *SSLRecord) error {
	if l.json {
		return l.ssl.writeJSON(&jsonSSLRecord{
			TS:             epochOf(r.TS),
			UID:            r.UID,
			OrigH:          r.OrigH,
			OrigP:          r.OrigP,
			RespH:          r.RespH,
			RespP:          r.RespP,
			Version:        optStr(r.Version),
			Cipher:         optStr(r.Cipher),
			ServerName:     optStr(r.ServerName),
			Resumed:        r.Resumed,
			Established:    r.Established,
			CertChainFUIDs: r.CertChainFUIDs,
		})
	}
	return l.ssl.WriteRecord([]string{
		FormatTime(r.TS),
		r.UID,
		r.OrigH,
		strconv.Itoa(r.OrigP),
		r.RespH,
		strconv.Itoa(r.RespP),
		r.Version,
		r.Cipher,
		r.ServerName,
		FormatBool(r.Resumed),
		FormatBool(r.Established),
		strings.Join(r.CertChainFUIDs, SetSeparator),
	})
}

// WriteX509 emits one certificate record.
func (l *LogWriter) WriteX509(r *X509Record) error {
	if l.json {
		return l.x509.writeJSON(&jsonX509Record{
			TS:             epochOf(r.TS),
			ID:             r.ID,
			Version:        r.Version,
			Serial:         r.Serial,
			Subject:        r.Subject,
			Issuer:         r.Issuer,
			NotValidBefore: epochOf(r.NotValidBefore),
			NotValidAfter:  epochOf(r.NotValidAfter),
			KeyAlg:         optStr(r.KeyAlg),
			SigAlg:         optStr(r.SigAlg),
			KeyType:        optStr(r.KeyType),
			KeyLength:      r.KeyLength,
			BasicCA:        r.BasicConstraintsCA,
			SANDNS:         r.SANDNS,
		})
	}
	bc := ""
	if r.BasicConstraintsCA != nil {
		bc = FormatBool(*r.BasicConstraintsCA)
	}
	return l.x509.WriteRecord([]string{
		FormatTime(r.TS),
		r.ID,
		strconv.Itoa(r.Version),
		r.Serial,
		r.Subject,
		r.Issuer,
		FormatTime(r.NotValidBefore),
		FormatTime(r.NotValidAfter),
		r.KeyAlg,
		r.SigAlg,
		r.KeyType,
		strconv.Itoa(r.KeyLength),
		bc,
		strings.Join(r.SANDNS, SetSeparator),
	})
}

// Flush pushes both streams' buffered records without closing them.
func (l *LogWriter) Flush() error {
	if err := l.ssl.Flush(); err != nil {
		return err
	}
	return l.x509.Flush()
}

// Close ends both streams; TSV logs get a #close line stamped at.
func (l *LogWriter) Close(at time.Time) error {
	if l.json {
		return l.Flush()
	}
	if err := l.ssl.Close(at); err != nil {
		return err
	}
	return l.x509.Close(at)
}

// ParseSSLRecord converts a generic record from an ssl.log stream.
func ParseSSLRecord(rec Record) (*SSLRecord, error) {
	r := &SSLRecord{}
	var ok bool
	if r.TS, ok = rec.GetTime("ts"); !ok {
		return nil, errSSLMissingTS
	}
	r.UID, _ = rec.Get("uid")
	if r.UID == "" {
		return nil, errSSLMissingUID
	}
	r.OrigH, _ = rec.Get("id.orig_h")
	r.OrigP, _ = rec.GetInt("id.orig_p")
	r.RespH, _ = rec.Get("id.resp_h")
	r.RespP, _ = rec.GetInt("id.resp_p")
	r.Version, _ = rec.Get("version")
	r.Cipher, _ = rec.Get("cipher")
	r.ServerName, _ = rec.Get("server_name")
	r.Resumed, _ = rec.GetBool("resumed")
	r.Established, _ = rec.GetBool("established")
	r.CertChainFUIDs = rec.GetVector("cert_chain_fuids")
	return r, nil
}

// X509Record is one x509.log row: a certificate observation.
type X509Record struct {
	TS             time.Time
	ID             string // file-unique id referenced by ssl.log
	Version        int
	Serial         string
	Subject        string
	Issuer         string
	NotValidBefore time.Time
	NotValidAfter  time.Time
	KeyAlg         string
	SigAlg         string
	KeyType        string
	KeyLength      int
	// BasicConstraintsCA mirrors Zeek's basic_constraints.ca: nil when the
	// extension is absent (logged as '-'), otherwise the CA boolean.
	BasicConstraintsCA *bool
	SANDNS             []string
}

var x509Fields = []string{
	"ts", "id", "certificate.version", "certificate.serial",
	"certificate.subject", "certificate.issuer",
	"certificate.not_valid_before", "certificate.not_valid_after",
	"certificate.key_alg", "certificate.sig_alg",
	"certificate.key_type", "certificate.key_length",
	"basic_constraints.ca", "san.dns",
}

var x509Types = []string{
	"time", "string", "count", "string",
	"string", "string",
	"time", "time",
	"string", "string",
	"string", "count",
	"bool", "vector[string]",
}

// ParseX509Record converts a generic record from an x509.log stream.
func ParseX509Record(rec Record) (*X509Record, error) {
	r := &X509Record{}
	var ok bool
	if r.TS, ok = rec.GetTime("ts"); !ok {
		return nil, errX509MissingTS
	}
	r.ID, _ = rec.Get("id")
	if r.ID == "" {
		return nil, errX509MissingID
	}
	r.Version, _ = rec.GetInt("certificate.version")
	r.Serial, _ = rec.Get("certificate.serial")
	r.Subject, _ = rec.Get("certificate.subject")
	r.Issuer, _ = rec.Get("certificate.issuer")
	r.NotValidBefore, _ = rec.GetTime("certificate.not_valid_before")
	r.NotValidAfter, _ = rec.GetTime("certificate.not_valid_after")
	r.KeyAlg, _ = rec.Get("certificate.key_alg")
	r.SigAlg, _ = rec.Get("certificate.sig_alg")
	r.KeyType, _ = rec.Get("certificate.key_type")
	r.KeyLength, _ = rec.GetInt("certificate.key_length")
	if v, present := rec.GetBool("basic_constraints.ca"); present {
		b := v
		r.BasicConstraintsCA = &b
	}
	r.SANDNS = rec.GetVector("san.dns")
	return r, nil
}

// FromMeta renders a certificate model as an x509.log record with the given
// observation time.
func FromMeta(m *certmodel.Meta, ts time.Time) *X509Record {
	sigAlg := m.SigAlg
	if sigAlg == "" {
		sigAlg = string(m.KeyAlg) + "-sha256"
	}
	r := &X509Record{
		TS:             ts,
		ID:             string(m.FP),
		Version:        3,
		Serial:         strings.ToUpper(m.SerialHex),
		Subject:        m.Subject.String(),
		Issuer:         m.Issuer.String(),
		NotValidBefore: m.NotBefore,
		NotValidAfter:  m.NotAfter,
		KeyAlg:         string(m.KeyAlg),
		SigAlg:         sigAlg,
		KeyType:        string(m.KeyAlg),
		KeyLength:      m.KeyBits,
		SANDNS:         m.SAN,
	}
	switch m.BC {
	case certmodel.BCTrue:
		b := true
		r.BasicConstraintsCA = &b
	case certmodel.BCFalse:
		b := false
		r.BasicConstraintsCA = &b
	}
	return r
}
