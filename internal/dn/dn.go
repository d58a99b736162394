// Package dn parses, normalizes, and compares X.500 distinguished names in
// the string form Zeek emits in its ssl.log and x509.log files
// ("CN=example.com,O=Example Inc.,C=US").
//
// The grammar follows RFC 4514 (the successor of RFC 2253): a DN is a
// sequence of relative distinguished names (RDNs) separated by commas, most
// significant last in certificate encoding order but conventionally printed
// leaf-attribute first. Each RDN is one or more attribute type/value pairs
// joined by '+'. Values may escape special characters with a backslash or be
// expressed as hex-encoded BER (#0401ff...).
//
// Matching in this package deliberately mirrors the paper's issuer–subject
// comparison: two DNs are equal when their normalized attribute sequences are
// equal, with case-insensitive attribute types, case-preserved values, and
// insignificant whitespace around separators removed.
package dn

import (
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Attribute is a single attribute type and value pair within an RDN, e.g.
// CN=example.com.
type Attribute struct {
	// Type is the attribute type, upper-cased during normalization
	// (CN, O, OU, C, L, ST, DC, UID, SERIALNUMBER, EMAILADDRESS, or a
	// dotted-decimal OID).
	Type string
	// Value is the attribute value with escapes resolved.
	Value string
}

// RDN is a relative distinguished name: one or (rarely) more attributes
// asserted at the same level, joined by '+' in string form.
type RDN []Attribute

// DN is a parsed distinguished name: a sequence of RDNs as printed, i.e.
// most specific (usually CN) first.
type DN []RDN

// ErrEmpty is returned by Parse for an empty or all-whitespace input.
var ErrEmpty = errors.New("dn: empty distinguished name")

// SyntaxError reports a malformed DN string together with the byte offset at
// which parsing failed.
type SyntaxError struct {
	Input  string
	Offset int
	Reason string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("dn: syntax error at offset %d: %s (input %q)", e.Offset, e.Reason, e.Input)
}

// attributeAliases maps the long attribute names that appear in OpenSSL- and
// Zeek-rendered DNs onto their short canonical forms so "commonName=x" and
// "CN=x" normalize identically.
var attributeAliases = map[string]string{
	"COMMONNAME":             "CN",
	"ORGANIZATIONNAME":       "O",
	"ORGANIZATIONALUNITNAME": "OU",
	"COUNTRYNAME":            "C",
	"LOCALITYNAME":           "L",
	"STATEORPROVINCENAME":    "ST",
	"S":                      "ST",
	"STREETADDRESS":          "STREET",
	"DOMAINCOMPONENT":        "DC",
	"USERID":                 "UID",
	"EMAIL":                  "EMAILADDRESS",
	"E":                      "EMAILADDRESS",
	"SN":                     "SERIALNUMBER",
	// Dotted OIDs for the common attributes, as some toolchains print them
	// raw when they lack a name table.
	"2.5.4.3":                    "CN",
	"2.5.4.10":                   "O",
	"2.5.4.11":                   "OU",
	"2.5.4.6":                    "C",
	"2.5.4.7":                    "L",
	"2.5.4.8":                    "ST",
	"2.5.4.9":                    "STREET",
	"2.5.4.5":                    "SERIALNUMBER",
	"0.9.2342.19200300.100.1.25": "DC",
	"0.9.2342.19200300.100.1.1":  "UID",
	"1.2.840.113549.1.9.1":       "EMAILADDRESS",
}

// CanonicalType returns the canonical upper-case short name for an attribute
// type, resolving aliases and dotted OIDs where known.
func CanonicalType(t string) string {
	u := strings.ToUpper(strings.TrimSpace(t))
	if short, ok := attributeAliases[u]; ok {
		return short
	}
	return u
}

// Parse parses an RFC 4514 distinguished-name string. Whitespace around the
// separators is ignored; escaped characters (\, \" \# \+ \; \< \> \= \,
// and \xx hex pairs) are resolved; values beginning with '#' are decoded as
// hex-encoded BER and kept as raw bytes in string form.
func Parse(s string) (DN, error) {
	if strings.TrimSpace(s) == "" {
		return nil, ErrEmpty
	}
	p := &parser{in: s}
	d, err := p.parseDN()
	if err != nil {
		return nil, err
	}
	return d, nil
}

// MustParse is Parse that panics on error; intended for tests and for
// compile-time-constant DNs in scenario definitions.
func MustParse(s string) DN {
	d, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return d
}

type parser struct {
	in  string
	pos int
}

func (p *parser) errf(reason string, args ...any) error {
	return &SyntaxError{Input: p.in, Offset: p.pos, Reason: fmt.Sprintf(reason, args...)}
}

func (p *parser) parseDN() (DN, error) {
	var d DN
	for {
		rdn, err := p.parseRDN()
		if err != nil {
			return nil, err
		}
		d = append(d, rdn)
		p.skipSpace()
		if p.pos >= len(p.in) {
			return d, nil
		}
		switch p.in[p.pos] {
		case ',', ';': // ';' is the legacy RFC 1779 separator, still seen in the wild
			p.pos++
		default:
			return nil, p.errf("expected ',' between RDNs, found %q", p.in[p.pos])
		}
	}
}

func (p *parser) parseRDN() (RDN, error) {
	var rdn RDN
	for {
		a, err := p.parseAttribute()
		if err != nil {
			return nil, err
		}
		rdn = append(rdn, a)
		p.skipSpace()
		if p.pos < len(p.in) && p.in[p.pos] == '+' {
			p.pos++
			continue
		}
		return rdn, nil
	}
}

func (p *parser) parseAttribute() (Attribute, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.in) && p.in[p.pos] != '=' {
		c := p.in[p.pos]
		if c == ',' || c == '+' || c == ';' {
			return Attribute{}, p.errf("attribute type missing '='")
		}
		p.pos++
	}
	if p.pos >= len(p.in) {
		return Attribute{}, p.errf("unexpected end of input in attribute type")
	}
	typ := strings.TrimSpace(p.in[start:p.pos])
	if typ == "" {
		return Attribute{}, p.errf("empty attribute type")
	}
	p.pos++ // consume '='
	val, err := p.parseValue()
	if err != nil {
		return Attribute{}, err
	}
	return Attribute{Type: CanonicalType(typ), Value: val}, nil
}

func (p *parser) parseValue() (string, error) {
	p.skipSpace()
	if p.pos < len(p.in) && p.in[p.pos] == '#' {
		return p.parseHexValue()
	}
	var b strings.Builder
	trailingSpace := 0
	for p.pos < len(p.in) {
		c := p.in[p.pos]
		switch c {
		case ',', '+', ';':
			goto done
		case '\\':
			p.pos++
			if p.pos >= len(p.in) {
				return "", p.errf("dangling escape at end of value")
			}
			e := p.in[p.pos]
			if isHexDigit(e) && p.pos+1 < len(p.in) && isHexDigit(p.in[p.pos+1]) {
				by, err := hex.DecodeString(p.in[p.pos : p.pos+2])
				if err != nil {
					return "", p.errf("bad hex escape")
				}
				b.WriteByte(by[0])
				p.pos += 2
			} else {
				b.WriteByte(e)
				p.pos++
			}
			trailingSpace = 0
		case ' ':
			b.WriteByte(c)
			trailingSpace++
			p.pos++
		default:
			b.WriteByte(c)
			trailingSpace = 0
			p.pos++
		}
	}
done:
	v := b.String()
	if trailingSpace > 0 {
		v = v[:len(v)-trailingSpace]
	}
	return v, nil
}

func (p *parser) parseHexValue() (string, error) {
	p.pos++ // consume '#'
	start := p.pos
	for p.pos < len(p.in) && isHexDigit(p.in[p.pos]) {
		p.pos++
	}
	h := p.in[start:p.pos]
	if len(h) == 0 || len(h)%2 != 0 {
		return "", p.errf("hex value must be a non-empty even number of hex digits")
	}
	raw, err := hex.DecodeString(h)
	if err != nil {
		return "", p.errf("bad hex value: %v", err)
	}
	return string(raw), nil
}

func (p *parser) skipSpace() {
	for p.pos < len(p.in) && (p.in[p.pos] == ' ' || p.in[p.pos] == '\t') {
		p.pos++
	}
}

func isHexDigit(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

// String renders the DN back in RFC 4514 form with canonical attribute types
// and minimal escaping. Parsing the output yields an equal DN.
func (d DN) String() string {
	// A DN of up to 256 bytes renders in this stack buffer, so the string
	// is the one allocation.
	var buf [256]byte
	return string(d.AppendString(buf[:0]))
}

// AppendString appends the DN's String form to b and returns the extended
// buffer. Values are escaped in place: ',', '+', ';', '\\', '"', '<', '>' and
// '=' anywhere, '#' first and ' ' first or last are backslash-escaped, and
// control bytes are hex-escaped.
func (d DN) AppendString(b []byte) []byte {
	for i, rdn := range d {
		if i > 0 {
			b = append(b, ',')
		}
		for j, a := range rdn {
			if j > 0 {
				b = append(b, '+')
			}
			b = append(b, a.Type...)
			b = append(b, '=')
			b = appendEscaped(b, a.Value)
		}
	}
	return b
}

func appendEscaped(b []byte, v string) []byte {
	for i := 0; i < len(v); i++ {
		c := v[i]
		switch {
		case c == ',' || c == '+' || c == ';' || c == '\\' || c == '"' || c == '<' || c == '>' || c == '=',
			c == '#' && i == 0,
			c == ' ' && (i == 0 || i == len(v)-1):
			b = append(b, '\\', c)
		case c < 0x20 || c == 0x7f:
			// Control characters cannot survive re-parsing literally
			// (tabs are separator whitespace); hex-escape them.
			b = append(b, '\\', hexDigits[c>>4], hexDigits[c&0xf])
		default:
			b = append(b, c)
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// Normalized returns a canonical single-string key for the DN suitable for
// map keys and equality via ==. Attribute types are canonicalized; values are
// compared byte-exact except for collapsing internal runs of spaces, matching
// the tolerance needed for log-rendered DNs. A DN of single-valued RDNs
// costs one allocation: collapsing only shrinks a value, so the summed
// lengths bound the key and the builder grows once.
func (d DN) Normalized() string {
	n := 0
	for i, rdn := range d {
		if i > 0 {
			n++ // ','
		}
		for j, a := range rdn {
			if j > 0 {
				n++ // '+'
			}
			n += len(a.Type) + 1 + len(a.Value)
		}
	}
	var b strings.Builder
	b.Grow(n)
	for i, rdn := range d {
		if i > 0 {
			b.WriteByte(',')
		}
		if len(rdn) == 1 {
			b.WriteString(rdn[0].Type)
			b.WriteByte('=')
			writeCollapsed(&b, rdn[0].Value)
			continue
		}
		// Multi-valued RDNs are order-insensitive per X.501: sort the pairs.
		pairs := make([]string, len(rdn))
		for j, a := range rdn {
			pairs[j] = a.Type + "=" + collapseSpaces(a.Value)
		}
		sort.Strings(pairs)
		b.WriteString(strings.Join(pairs, "+"))
	}
	return b.String()
}

// writeCollapsed writes v to b with every internal run of spaces collapsed
// to one space.
func writeCollapsed(b *strings.Builder, v string) {
	for {
		i := strings.Index(v, "  ")
		if i < 0 {
			b.WriteString(v)
			return
		}
		b.WriteString(v[:i+1])
		v = strings.TrimLeft(v[i+1:], " ")
	}
}

func collapseSpaces(v string) string {
	if !strings.Contains(v, "  ") {
		return v
	}
	var b strings.Builder
	writeCollapsed(&b, v)
	return b.String()
}

// Equal reports whether two DNs are equal under normalization. This is the
// comparison the paper's issuer–subject methodology performs at every hop of
// a certificate chain.
func (d DN) Equal(o DN) bool {
	if len(d) != len(o) {
		return false
	}
	return d.Normalized() == o.Normalized()
}

// Get returns the value of the first attribute with the given (canonical or
// aliased) type, searching RDNs in printed order, and whether it was found.
func (d DN) Get(typ string) (string, bool) {
	ct := CanonicalType(typ)
	for _, rdn := range d {
		for _, a := range rdn {
			if a.Type == ct {
				return a.Value, true
			}
		}
	}
	return "", false
}

// CommonName returns the CN attribute value, or "" when absent.
func (d DN) CommonName() string {
	v, _ := d.Get("CN")
	return v
}

// Organization returns the O attribute value, or "" when absent.
func (d DN) Organization() string {
	v, _ := d.Get("O")
	return v
}

// Country returns the C attribute value, or "" when absent.
func (d DN) Country() string {
	v, _ := d.Get("C")
	return v
}

// Clone returns a deep copy of the DN.
func (d DN) Clone() DN {
	out := make(DN, len(d))
	for i, rdn := range d {
		out[i] = append(RDN(nil), rdn...)
	}
	return out
}

// FromMap builds a single-attribute-per-RDN DN from ordered type/value pairs.
// It is a convenience for scenario construction: FromMap("CN", "x", "O", "y").
// It panics on an odd number of arguments (programming error).
func FromMap(pairs ...string) DN {
	if len(pairs)%2 != 0 {
		panic("dn.FromMap: odd number of arguments")
	}
	d := make(DN, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		d = append(d, RDN{{Type: CanonicalType(pairs[i]), Value: pairs[i+1]}})
	}
	return d
}

// Equalish is a looser comparison used when cross-referencing DNs that were
// rendered by different software: it compares only the multiset of
// (type, value) pairs, ignoring RDN order. The paper needs this when matching
// a CT-logged issuer against a Zeek-logged issuer.
func Equalish(a, b DN) bool {
	return multiset(a) == multiset(b)
}

func multiset(d DN) string {
	var pairs []string
	for _, rdn := range d {
		for _, a := range rdn {
			pairs = append(pairs, a.Type+"="+collapseSpaces(a.Value))
		}
	}
	sort.Strings(pairs)
	return strings.Join(pairs, "\x00")
}
