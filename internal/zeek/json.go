//certchain:hotpath — the ND-JSON wire forms and Record conversion run once per log line.

package zeek

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// Zeek's second on-disk format: newline-delimited JSON, one object per
// record (LogAscii::use_json=T). Field names match the TSV schema; times are
// epoch seconds with fractional precision, exactly as Zeek renders them.

// The writer appends both wire forms by hand, byte for byte what
// encoding/json marshals for them (wire_test.go keeps the structs as the
// reference): unset string fields, a zero key length, an absent basic
// constraint and empty vectors are omitted; times are the float the TSV
// text denotes, in encoding/json's float form.

// appendSSLJSON appends r as one ssl.log ND-JSON object.
func appendSSLJSON(b []byte, r *SSLRecord) []byte {
	b = append(b, `{"ts":`...)
	b = appendJSONEpoch(b, r.TS.UnixNano())
	b = append(b, `,"uid":`...)
	b = appendJSONString(b, r.UID)
	b = append(b, `,"id.orig_h":`...)
	b = appendJSONString(b, r.OrigH)
	b = append(b, `,"id.orig_p":`...)
	b = strconv.AppendInt(b, int64(r.OrigP), 10)
	b = append(b, `,"id.resp_h":`...)
	b = appendJSONString(b, r.RespH)
	b = append(b, `,"id.resp_p":`...)
	b = strconv.AppendInt(b, int64(r.RespP), 10)
	b = appendJSONOpt(b, `,"version":`, r.Version)
	b = appendJSONOpt(b, `,"cipher":`, r.Cipher)
	b = appendJSONOpt(b, `,"server_name":`, r.ServerName)
	b = append(b, `,"resumed":`...)
	b = strconv.AppendBool(b, r.Resumed)
	b = append(b, `,"established":`...)
	b = strconv.AppendBool(b, r.Established)
	b = appendJSONStrings(b, `,"cert_chain_fuids":`, r.CertChainFUIDs)
	return append(b, '}')
}

// appendX509JSON appends r as one x509.log ND-JSON object.
func appendX509JSON(b []byte, r *X509Record) []byte {
	b = append(b, `{"ts":`...)
	b = appendJSONEpoch(b, r.TS.UnixNano())
	b = append(b, `,"id":`...)
	b = appendJSONString(b, r.ID)
	b = append(b, `,"certificate.version":`...)
	b = strconv.AppendInt(b, int64(r.Version), 10)
	b = append(b, `,"certificate.serial":`...)
	b = appendJSONString(b, r.Serial)
	b = append(b, `,"certificate.subject":`...)
	b = appendJSONString(b, r.Subject)
	b = append(b, `,"certificate.issuer":`...)
	b = appendJSONString(b, r.Issuer)
	b = append(b, `,"certificate.not_valid_before":`...)
	b = appendJSONEpoch(b, r.NotValidBefore.UnixNano())
	b = append(b, `,"certificate.not_valid_after":`...)
	b = appendJSONEpoch(b, r.NotValidAfter.UnixNano())
	b = appendJSONOpt(b, `,"certificate.key_alg":`, r.KeyAlg)
	b = appendJSONOpt(b, `,"certificate.sig_alg":`, r.SigAlg)
	b = appendJSONOpt(b, `,"certificate.key_type":`, r.KeyType)
	if r.KeyLength != 0 {
		b = append(b, `,"certificate.key_length":`...)
		b = strconv.AppendInt(b, int64(r.KeyLength), 10)
	}
	if r.BasicConstraintsCA != nil {
		b = append(b, `,"basic_constraints.ca":`...)
		b = strconv.AppendBool(b, *r.BasicConstraintsCA)
	}
	b = appendJSONStrings(b, `,"san.dns":`, r.SANDNS)
	return append(b, '}')
}

// appendJSONOpt appends key and v unless v is empty (an omitted field).
func appendJSONOpt(b []byte, key, v string) []byte {
	if v == "" {
		return b
	}
	return appendJSONString(append(b, key...), v)
}

// appendJSONStrings appends key and vs as an array unless vs is empty.
func appendJSONStrings(b []byte, key string, vs []string) []byte {
	if len(vs) == 0 {
		return b
	}
	b = append(b, key...)
	for i, v := range vs {
		if i == 0 {
			b = append(b, '[')
		} else {
			b = append(b, ',')
		}
		b = appendJSONString(b, v)
	}
	return append(b, ']')
}

// appendJSONEpoch appends the number encoding/json writes for the float
// that appendEpoch's six-decimal text parses to. For 2^-11 ≤ |f| < 2^33 the
// float's spacing is under a microsecond, so the shortest text that parses
// back to it is the six-decimal text without trailing zeros.
func appendJSONEpoch(b []byte, ns int64) []byte {
	micros, neg, shift, ok := epochMicros(ns)
	if ok && shift >= 20 {
		b = appendMicros(b, micros, neg)
		for b[len(b)-1] == '0' {
			b = b[:len(b)-1]
		}
		if b[len(b)-1] == '.' {
			b = b[:len(b)-1]
		}
		return b
	}
	f, _ := strconv.ParseFloat(strconv.FormatFloat(float64(ns)/1e9, 'f', 6, 64), 64)
	return appendJSONFloat(b, f)
}

// appendJSONFloat is encoding/json's float64 form: strconv's shortest 'f',
// or 'e' outside [1e-6, 1e21) with a one-digit negative exponent unpadded.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendJSONString appends s quoted as encoding/json quotes it: HTML-safe
// (<, > and & escaped), control bytes escaped, invalid UTF-8 replaced by
// U+FFFD and U+2028/U+2029 escaped.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
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
