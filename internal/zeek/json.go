//certchain:hotpath — the ND-JSON writers and Record conversion run once per log line.

package zeek

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"
)

// Zeek's second on-disk format: newline-delimited JSON, one object per
// record (LogAscii::use_json=T). Field names match the TSV schema; times are
// epoch seconds with fractional precision, exactly as Zeek renders them.

// JSONSSLWriter writes ssl.log records as ND-JSON.
type JSONSSLWriter struct {
	w *bufio.Writer
}

// NewJSONSSLWriter creates an ND-JSON ssl.log writer.
func NewJSONSSLWriter(w io.Writer) *JSONSSLWriter {
	return &JSONSSLWriter{w: bufio.NewWriterSize(w, 1<<16)}
}

// jsonSSLRecord is the wire form; pointers express Zeek's unset fields.
type jsonSSLRecord struct {
	TS             float64  `json:"ts"`
	UID            string   `json:"uid"`
	OrigH          string   `json:"id.orig_h"`
	OrigP          int      `json:"id.orig_p"`
	RespH          string   `json:"id.resp_h"`
	RespP          int      `json:"id.resp_p"`
	Version        *string  `json:"version,omitempty"`
	Cipher         *string  `json:"cipher,omitempty"`
	ServerName     *string  `json:"server_name,omitempty"`
	Resumed        bool     `json:"resumed"`
	Established    bool     `json:"established"`
	CertChainFUIDs []string `json:"cert_chain_fuids,omitempty"`
}

func optStr(s string) *string {
	if s == "" {
		return nil
	}
	return &s
}

func epochOf(t time.Time) float64 {
	f, _ := strconv.ParseFloat(FormatTime(t), 64)
	return f
}

// Write emits one connection record.
func (w *JSONSSLWriter) Write(r *SSLRecord) error {
	rec := jsonSSLRecord{
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
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("zeek: marshal json ssl record: %w", err) //certchain:coldpath marshal error path
	}
	if _, err := w.w.Write(data); err != nil {
		return err
	}
	return w.w.WriteByte('\n')
}

// Close flushes the stream.
func (w *JSONSSLWriter) Close() error { return w.w.Flush() }

// Flush pushes buffered records without closing the stream.
func (w *JSONSSLWriter) Flush() error { return w.w.Flush() }

// JSONX509Writer writes x509.log records as ND-JSON.
type JSONX509Writer struct {
	w *bufio.Writer
}

// NewJSONX509Writer creates an ND-JSON x509.log writer.
func NewJSONX509Writer(w io.Writer) *JSONX509Writer {
	return &JSONX509Writer{w: bufio.NewWriterSize(w, 1<<16)}
}

type jsonX509Record struct {
	TS             float64  `json:"ts"`
	ID             string   `json:"id"`
	Version        int      `json:"certificate.version"`
	Serial         string   `json:"certificate.serial"`
	Subject        string   `json:"certificate.subject"`
	Issuer         string   `json:"certificate.issuer"`
	NotValidBefore float64  `json:"certificate.not_valid_before"`
	NotValidAfter  float64  `json:"certificate.not_valid_after"`
	KeyAlg         *string  `json:"certificate.key_alg,omitempty"`
	SigAlg         *string  `json:"certificate.sig_alg,omitempty"`
	KeyType        *string  `json:"certificate.key_type,omitempty"`
	KeyLength      int      `json:"certificate.key_length,omitempty"`
	BasicCA        *bool    `json:"basic_constraints.ca,omitempty"`
	SANDNS         []string `json:"san.dns,omitempty"`
}

// Write emits one certificate record.
func (w *JSONX509Writer) Write(r *X509Record) error {
	rec := jsonX509Record{
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
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("zeek: marshal json x509 record: %w", err) //certchain:coldpath marshal error path
	}
	if _, err := w.w.Write(data); err != nil {
		return err
	}
	return w.w.WriteByte('\n')
}

// Close flushes the stream.
func (w *JSONX509Writer) Close() error { return w.w.Flush() }

// Flush pushes buffered records without closing the stream.
func (w *JSONX509Writer) Flush() error { return w.w.Flush() }

// LogWriter writes one capture's ssl.log and x509.log pair in either format:
// Zeek's TSV layout (headers stamped with open) or ND-JSON. Exactly one of
// the two writer pairs is set.
type LogWriter struct {
	ssl      *SSLWriter
	x509     *X509Writer
	jsonSSL  *JSONSSLWriter
	jsonX509 *JSONX509Writer
}

// NewLogWriter creates a writer pair: ND-JSON when ndjson is set, TSV opened
// at open otherwise.
func NewLogWriter(ndjson bool, ssl, x509 io.Writer, open time.Time) *LogWriter {
	if ndjson {
		return &LogWriter{jsonSSL: NewJSONSSLWriter(ssl), jsonX509: NewJSONX509Writer(x509)}
	}
	return &LogWriter{ssl: NewSSLWriter(ssl, open), x509: NewX509Writer(x509, open)}
}

// WriteSSL emits one connection record.
func (l *LogWriter) WriteSSL(r *SSLRecord) error {
	if l.jsonSSL != nil {
		return l.jsonSSL.Write(r)
	}
	return l.ssl.Write(r)
}

// WriteX509 emits one certificate record.
func (l *LogWriter) WriteX509(r *X509Record) error {
	if l.jsonX509 != nil {
		return l.jsonX509.Write(r)
	}
	return l.x509.Write(r)
}

// Flush pushes both streams' buffered records without closing them.
func (l *LogWriter) Flush() error {
	if l.jsonSSL != nil {
		if err := l.jsonSSL.Flush(); err != nil {
			return err
		}
		return l.jsonX509.Flush()
	}
	if err := l.ssl.Flush(); err != nil {
		return err
	}
	return l.x509.Flush()
}

// Close ends both streams; TSV logs get a #close line stamped at.
func (l *LogWriter) Close(at time.Time) error {
	if l.jsonSSL != nil {
		return l.Flush()
	}
	if err := l.ssl.Close(at); err != nil {
		return err
	}
	return l.x509.Close(at)
}

// jsonRecord is the one ND-JSON → Record conversion: one line, parsed by
// encoding/json, with every value rendered back to the string form the TSV
// format carries (bools as T/F, vectors joined with the set separator,
// numbers via strconv), so the Record parsers work on both formats. The
// error is encoding/json's own; callers add their line context.
func jsonRecord(line []byte) (Record, error) {
	var raw map[string]any
	if err := json.Unmarshal(line, &raw); err != nil {
		return nil, err
	}
	rec := make(Record, len(raw))
	for k, v := range raw {
		rec[k] = jsonValueToField(v)
	}
	return rec, nil
}

func jsonValueToField(v any) string {
	switch t := v.(type) {
	case nil:
		return UnsetField
	case bool:
		return FormatBool(t)
	case float64:
		return strconv.FormatFloat(t, 'f', -1, 64)
	case string:
		if t == "" {
			return EmptyField
		}
		return t
	case []any:
		out := ""
		for i, el := range t {
			if i > 0 {
				out += SetSeparator
			}
			out += jsonValueToField(el)
		}
		if out == "" {
			return EmptyField
		}
		return out
	default:
		// Unmarshal into `any` only yields this for JSON objects, which the
		// Zeek schemas never emit.
		return fmt.Sprint(t) //certchain:coldpath unexpected-type fallback
	}
}
