package dn

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// referenceNormalized is the straightforward form of DN.Normalized — every
// pair built as its own string, pairs sorted and joined per RDN — kept as the
// oracle the single-allocation implementation must reproduce byte for byte.
func referenceNormalized(d DN) string {
	var b strings.Builder
	for i, rdn := range d {
		if i > 0 {
			b.WriteByte(',')
		}
		pairs := make([]string, len(rdn))
		for j, a := range rdn {
			pairs[j] = a.Type + "=" + referenceCollapse(a.Value)
		}
		sort.Strings(pairs)
		b.WriteString(strings.Join(pairs, "+"))
	}
	return b.String()
}

func referenceCollapse(v string) string {
	var b strings.Builder
	prevSpace := false
	for i := 0; i < len(v); i++ {
		c := v[i]
		if c == ' ' {
			if prevSpace {
				continue
			}
			prevSpace = true
		} else {
			prevSpace = false
		}
		b.WriteByte(c)
	}
	return b.String()
}

// normalizedCases name the shapes Normalized treats specially; FuzzParse
// replays them as seeds.
var normalizedCases = []struct{ name, dn string }{
	{"multi-valued RDN", "CN=b+OU=a  x+CN=a,O=Org"},
	{"runs of spaces", "CN=a   b    c,O=  lead,OU=trail   "},
	{"escaped comma", `CN=Foo\, Bar,O=GoDaddy.com\, Inc.`},
	{"escaped spaces", `CN=\20\20x\20\20`},
}

// TestNormalizedEmptyDN covers the DNs Parse never returns: nil, and RDNs
// without attributes.
func TestNormalizedEmptyDN(t *testing.T) {
	for _, d := range []DN{nil, {}, {{}}, {{}, {}}} {
		if got, want := d.Normalized(), referenceNormalized(d); got != want {
			t.Fatalf("Normalized(%#v) = %q, reference %q", d, got, want)
		}
	}
}

// TestNormalizedAllocs: a DN of single-valued RDNs normalizes in exactly one
// allocation, the key itself.
func TestNormalizedAllocs(t *testing.T) {
	d := MustParse("CN=leaf.example.edu,O=Campus  Networks,C=US")
	allocs := testing.AllocsPerRun(1000, func() { _ = d.Normalized() })
	if allocs != 1 {
		t.Fatalf("Normalized allocated %.1f allocs/op on a 3-RDN DN, want 1", allocs)
	}
}

// FuzzParse drives the DN parser with arbitrary byte strings: it must never
// panic, and any successfully parsed DN must re-render to a string that
// parses back to an equal DN (the round-trip invariant the pipeline's
// cross-referencing relies on). Normalized must equal its reference form.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"CN=example.com,O=Example Inc.,C=US",
		`CN=Foo\, Bar+OU=dev,O=x`,
		"CN=#414243",
		"commonName=a;O=b",
		`CN=back\\slash\20`,
		"EMAILADDRESS=webmaster@localhost,CN=localhost,OU=none,O=none,L=Sometown,ST=Someprovince,C=US",
		"2.5.4.3=oid,0.9.2342.19200300.100.1.25=edu",
		"CN=,O=empty-value",
		"CN=трест,O=юникод",
	} {
		f.Add(seed)
	}
	for _, c := range normalizedCases {
		f.Add(c.dn)
	}
	f.Fuzz(func(t *testing.T, input string) {
		d, err := Parse(input)
		if err != nil {
			return // rejection is fine; panics are not
		}
		if got, want := d.Normalized(), referenceNormalized(d); got != want {
			t.Fatalf("Normalized(%q) = %q, reference %q", input, got, want)
		}
		s := d.String()
		d2, err := Parse(s)
		if err != nil {
			t.Fatalf("re-render of %q produced unparseable %q: %v", input, s, err)
		}
		if !d.Equal(d2) {
			t.Fatalf("round trip changed DN: %q -> %q", input, s)
		}
		// Normalization must be stable.
		if d.Normalized() != d2.Normalized() {
			t.Fatalf("normalization unstable for %q", input)
		}
	})
}

// referenceString is the straightforward form of DN.String — one builder per
// escaped value, hex escapes through fmt — kept as the oracle the appending
// implementation must reproduce byte for byte.
func referenceString(d DN) string {
	var b strings.Builder
	for i, rdn := range d {
		if i > 0 {
			b.WriteByte(',')
		}
		for j, a := range rdn {
			if j > 0 {
				b.WriteByte('+')
			}
			b.WriteString(a.Type)
			b.WriteByte('=')
			b.WriteString(referenceEscape(a.Value))
		}
	}
	return b.String()
}

func referenceEscape(v string) string {
	if v == "" {
		return v
	}
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		c := v[i]
		switch {
		case c == ',' || c == '+' || c == ';' || c == '\\' || c == '"' || c == '<' || c == '>' || c == '=':
			b.WriteByte('\\')
			b.WriteByte(c)
		case c == '#' && i == 0:
			b.WriteByte('\\')
			b.WriteByte(c)
		case c == ' ' && (i == 0 || i == len(v)-1):
			b.WriteByte('\\')
			b.WriteByte(c)
		case c < 0x20 || c == 0x7f:
			fmt.Fprintf(&b, "\\%02x", c)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// TestDNStringAllocs: String costs one allocation, the string itself.
func TestDNStringAllocs(t *testing.T) {
	d := MustParse(`CN=Foo\, Bar+OU=dev,O=Campus  Networks\0a,C=US`)
	allocs := testing.AllocsPerRun(1000, func() { _ = d.String() })
	if allocs != 1 {
		t.Fatalf("String allocated %.1f allocs/op, want 1", allocs)
	}
}

// FuzzDNString checks String against referenceString twice per input: on
// the parsed DN, and on DNs built directly from the input's bytes, which
// reach values Parse never produces (control bytes, a leading '#', leading
// and trailing spaces, every special character, multi-valued RDNs). Both
// must parse back to the DN they were rendered from.
func FuzzDNString(f *testing.F) {
	for _, seed := range []string{
		"CN=example.com,O=Example Inc.,C=US",
		`CN=Foo\, Bar+OU=dev,O=x`,
		"#lead,trail ,  both  ",
		",+;\\\"<>=#",
		"\x00\x01\t\n\x1f\x7f",
		"CN=трест,O=юникод",
		strings.Repeat("long value ", 40),
	} {
		f.Add(seed)
	}
	for _, c := range normalizedCases {
		f.Add(c.dn)
	}
	check := func(t *testing.T, d DN) {
		t.Helper()
		s := d.String()
		if want := referenceString(d); s != want {
			t.Fatalf("String(%#v) = %q, reference %q", d, s, want)
		}
		if got := string(d.AppendString([]byte("prefix:"))); got != "prefix:"+s {
			t.Fatalf("AppendString(%#v) = %q, want %q", d, got, "prefix:"+s)
		}
		back, err := Parse(s)
		if err != nil {
			t.Fatalf("String(%#v) = %q does not parse: %v", d, s, err)
		}
		if !reflect.DeepEqual(back, d) {
			t.Fatalf("Parse(String(%#v)) = %#v via %q", d, back, s)
		}
	}
	f.Fuzz(func(t *testing.T, input string) {
		if d, err := Parse(input); err == nil {
			check(t, d)
		}
		// Built DNs: the input is a value of its own and, split in half,
		// the two values of a multi-valued RDN.
		h := len(input) / 2
		d := DN{{{Type: "CN", Value: input[:h]}, {Type: "OU", Value: input[h:]}}, {{Type: "O", Value: input}}}
		check(t, d)
	})
}
