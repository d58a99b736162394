//certchain:hotpath — the ND-JSON wire forms and Record conversion run once per log line.

package zeek

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"
)

// Zeek's second on-disk format: newline-delimited JSON, one object per
// record (LogAscii::use_json=T). Field names match the TSV schema; times are
// epoch seconds with fractional precision, exactly as Zeek renders them.

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

// jsonX509Record is the x509.log wire form.
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

// writeJSON emits v, a wire-form record, as one ND-JSON line.
func (w *Writer) writeJSON(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("zeek: marshal json %s record: %w", w.header.Path, err) //certchain:coldpath marshal error path
	}
	if _, err := w.w.Write(data); err != nil {
		return err
	}
	return w.w.WriteByte('\n')
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
