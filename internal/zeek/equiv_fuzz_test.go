package zeek

import (
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"certchains/internal/certmodel"
	"certchains/internal/dn"
)

// The differential wall: FastJoin/FastJoinJSON are pinned byte-identical to
// Join/JoinJSON — same joined rows in the same order, same per-row errors,
// same stream errors, on ANY input — with the legacy decoder as the oracle.

// metaSnap is a comparable deep view of a Meta. Meta itself carries
// unexported atomic memo fields, so reflect.DeepEqual on *Meta would compare
// memo state rather than decoded content.
type metaSnap struct {
	FP              certmodel.Fingerprint
	Issuer, Subject dn.DN
	SerialHex       string
	NotBefore       time.Time
	NotAfter        time.Time
	KeyAlg          certmodel.KeyAlgorithm
	KeyBits         int
	BC              certmodel.BasicConstraints
	SAN             []string
	SigAlg          string
}

func snapMeta(m *certmodel.Meta) metaSnap {
	return metaSnap{
		FP: m.FP, Issuer: m.Issuer, Subject: m.Subject, SerialHex: m.SerialHex,
		NotBefore: m.NotBefore, NotAfter: m.NotAfter, KeyAlg: m.KeyAlg,
		KeyBits: m.KeyBits, BC: m.BC, SAN: m.SAN, SigAlg: m.SigAlg,
	}
}

// connSnap is one callback event: either a joined row (deep-copied out of
// the pooled record) or a per-row error string.
type connSnap struct {
	Err   string
	SSL   SSLRecord
	Chain []metaSnap
}

type joinFunc func(ssl, x509 io.Reader, fn func(*Connection, error) error) error

// collectJoin drains one join implementation into comparable events plus the
// stream-level error string.
func collectJoin(join joinFunc, ssl, x509 string) (events []connSnap, streamErr string) {
	err := join(strings.NewReader(ssl), strings.NewReader(x509), func(c *Connection, err error) error {
		if err != nil {
			events = append(events, connSnap{Err: err.Error()})
			return nil
		}
		s := connSnap{SSL: *c.SSL}
		s.SSL.CertChainFUIDs = append([]string(nil), c.SSL.CertChainFUIDs...)
		for _, m := range c.Chain {
			s.Chain = append(s.Chain, snapMeta(m))
		}
		events = append(events, s)
		return nil
	})
	if err != nil {
		streamErr = err.Error()
	}
	return events, streamErr
}

func diffJoins(t *testing.T, legacy, fast joinFunc, ssl, x509 string) {
	t.Helper()
	wantEv, wantErr := collectJoin(legacy, ssl, x509)
	gotEv, gotErr := collectJoin(fast, ssl, x509)
	if wantErr != gotErr {
		t.Fatalf("stream error diverged:\nlegacy: %q\nfast:   %q\nssl:\n%q\nx509:\n%q", wantErr, gotErr, ssl, x509)
	}
	if len(wantEv) != len(gotEv) {
		t.Fatalf("event count diverged: legacy %d, fast %d\nssl:\n%q\nx509:\n%q", len(wantEv), len(gotEv), ssl, x509)
	}
	for i := range wantEv {
		if !reflect.DeepEqual(wantEv[i], gotEv[i]) {
			t.Fatalf("event %d diverged:\nlegacy: %+v\nfast:   %+v\nssl:\n%q\nx509:\n%q", i, wantEv[i], gotEv[i], ssl, x509)
		}
	}
}

const tsvSSLHeader = "#separator \\x09\n#fields\tts\tuid\tid.orig_h\tid.orig_p\tid.resp_h\tid.resp_p\tversion\tcipher\tserver_name\tresumed\testablished\tcert_chain_fuids\n"

const tsvX509Header = "#fields\tts\tid\tcertificate.version\tcertificate.serial\tcertificate.subject\tcertificate.issuer\tcertificate.not_valid_before\tcertificate.not_valid_after\tcertificate.key_alg\tcertificate.sig_alg\tcertificate.key_type\tcertificate.key_length\tbasic_constraints.ca\tsan.dns\n"

const tsvSeedX509Row = "1700000000.5\tFa1\t3\t0AbC\tCN=leaf,O=Campus\tCN=Inter CA\t1690000000.0\t1790000000.0\trsa\tsha256WithRSAEncryption\trsa\t2048\tF\texample.edu,www.example.edu\n"

const tsvSeedSSLRow = "1700000001.25\tCu1\t10.0.0.1\t51234\t10.0.0.2\t443\tTLSv12\tTLS_AES_128_GCM_SHA256\texample.edu\tF\tT\tFa1\n"

// tsvSeedCases feed the TSV differential fuzzer and are replayed as plain
// deterministic tests; [0] is the ssl stream, [1] the x509 stream.
var tsvSeedCases = [][2]string{
	{tsvSSLHeader + tsvSeedSSLRow, tsvX509Header + tsvSeedX509Row},
	// Sentinels, escapes, vectors with empties.
	{tsvSSLHeader + "1.5\tCu2\t-\t-\t(empty)\t0\t-\t-\t\\x2d\tT\tF\tFa1,Fa2\n",
		tsvX509Header + tsvSeedX509Row + "2.0\tFa2\t3\t-\tCN=mid\\x2ccomma\tCN=Root\t-\t-\t-\t-\tecdsa\t256\tT\t-\n"},
	// Duplicate x509 id (first wins), unknown fuid, missing ts/uid rows.
	{tsvSSLHeader + "-\tCu3\t-\t-\t-\t0\t-\t-\t-\tF\tF\t-\n2.0\t-\t-\t0\t-\t0\t-\t-\t-\tF\tF\t-\n3.0\tCu4\t-\t0\t-\t0\t-\t-\t-\tF\tF\tFmissing\n",
		tsvX509Header + tsvSeedX509Row + tsvSeedX509Row},
	// Truncated final lines (mid-write tolerance), CRLF, blank lines.
	{tsvSSLHeader + "\r\n" + tsvSeedSSLRow + "9.0\tCutoff\t10.0.0.9", tsvX509Header + "1.0\tFa1\t3"},
	// Wrong field count (terminated: error), data before header.
	{tsvSSLHeader + "1.0\tonly-two\n", "1.0\tFa1\n"},
	// Header variants: bare #fields, re-declared header mid-stream, dup names.
	{"#fields\n1.0\n#fields\tts\tuid\tuid\n1.0\tA\tB\n", "#fields\tts\tid\n1.0\tF1\n"},
	// Escape torture: dangling backslash, malformed hex, escaped separator.
	{tsvSSLHeader + "1.0\tC\\x5c1\t\\xZZ\t1\t\\x\t2\t\\\t-\t\\x2D\tT\tT\t-\n", tsvX509Header},
}

func FuzzTSVDecodeEquivalence(f *testing.F) {
	for _, c := range tsvSeedCases {
		f.Add(c[0], c[1])
	}
	f.Fuzz(func(t *testing.T, ssl, x509 string) {
		if len(ssl)+len(x509) > 1<<16 {
			t.Skip("oversized input")
		}
		diffJoins(t, Join, FastJoin, ssl, x509)
	})
}

const jsonSSLRow = `{"ts":1700000001.25,"uid":"Cu1","id.orig_h":"10.0.0.1","id.orig_p":51234,"id.resp_h":"10.0.0.2","id.resp_p":443,"version":"TLSv12","cipher":"TLS_AES_128_GCM_SHA256","server_name":"example.edu","resumed":false,"established":true,"cert_chain_fuids":["Fa1"]}` + "\n"

const jsonX509Row = `{"ts":1700000000.5,"id":"Fa1","certificate.version":3,"certificate.serial":"0AbC","certificate.subject":"CN=leaf,O=Campus","certificate.issuer":"CN=Inter CA","certificate.not_valid_before":1690000000,"certificate.not_valid_after":1790000000,"certificate.key_alg":"rsa","certificate.sig_alg":"sha256WithRSAEncryption","certificate.key_type":"rsa","certificate.key_length":2048,"basic_constraints.ca":false,"san.dns":["example.edu","www.example.edu"]}` + "\n"

// jsonSeedCases feed the ND-JSON differential fuzzer and are replayed as
// plain deterministic tests; [0] is the ssl stream, [1] the x509 stream.
var jsonSeedCases = [][2]string{
	{jsonSSLRow, jsonX509Row},
	// Nulls, sentinel strings, empty strings and arrays, unknown keys.
	{`{"ts":2,"uid":"Cu2","server_name":null,"version":"-","cipher":"","cert_chain_fuids":[],"extra":[1,"x",null]}` + "\n",
		`{"ts":2,"id":"Fa1","certificate.subject":"","certificate.issuer":null,"basic_constraints.ca":null,"san.dns":null}` + "\n"},
	// Escapes and nested values force the legacy fallback; duplicate keys.
	{`{"ts":3,"uid":"C\u00753","nested":{"a":1}}` + "\n" + `{"ts":4,"uid":"Cu4","uid":"Cu5"}` + "\n",
		`{"ts":3,"id":"F\t1"}` + "\n"},
	// Numeric edges: exponents, -0, huge, non-integral ports, out-of-range,
	// and grammar the legacy parser rejects.
	{`{"ts":1e9,"uid":"Cu6","id.orig_p":3.5,"id.resp_p":-0,"cert_chain_fuids":["a","b"]}` + "\n" + `{"ts":01,"uid":"bad"}` + "\n",
		`{"ts":1.0e-3,"id":"F6","certificate.key_length":1e999}` + "\n"},
	// Type surprises: string ts, numeric uid, bool where string expected.
	{`{"ts":"5.5","uid":"Cu7","version":7,"resumed":"T"}` + "\n", `{"ts":6,"id":7}` + "\n"},
	// Malformed JSON (stream error), blank lines, CRLF.
	{"\r\n" + `{"ts":8,"uid":"Cu8"}` + "\r\n" + `{"ts":` + "\n", `{"ts":8,"id":"F8"}` + "\n"},
	// Missing ts / uid / id, whole-array sentinels.
	{`{"uid":"Cu9"}` + "\n" + `{"ts":9,"uid":"-"}` + "\n" + `{"ts":9,"uid":"Cu10","cert_chain_fuids":["-"]}` + "\n",
		`{"id":"F9"}` + "\n" + `{"ts":9,"id":"-"}` + "\n"},
	// Simple escapes in x509 strings stay on the fast tokenizer: \\ (an
	// escaped DN comma), \", \/, \t beside a literal é, and \\ just before
	// the closing quote.
	{`{"ts":10,"uid":"Ce1","cert_chain_fuids":["Fe1","Fe2"]}` + "\n",
		`{"ts":10,"id":"Fe1","certificate.serial":"0A\\","certificate.subject":"CN=GoDaddy.com\\, Inc.,O=x","certificate.issuer":"CN=Café\\, Ltd"}` + "\n" +
			`{"ts":10,"id":"Fe2","certificate.subject":"CN=Café\\, Ltd","certificate.issuer":"CN=\"q\" \/ root\t1"}` + "\n" +
			`{"ts":10,"id":"Fe3\\","certificate.subject":"CN=\"q\" \/ root\t1","certificate.issuer":"CN=\"q\" \/ root\t1"}` + "\n"},
	// Fallback ssl lines whose values the TSV transcoding must escape or keep:
	// a tab, a backslash (one before what reads as a TSV escape, too), a
	// newline, a leading '#' (in the first column too), the sentinel strings
	// - and (empty), and a comma inside a fuid.
	{`{"ts":11,"uid":"C\tab","id.resp_h":"10.0.0.2","id.resp_p":443,"server_name":"a\\x41\\b","cert_chain_fuids":["Ff1"]}` + "\n" +
		`{"ts":12,"uid":"Cnl","id.orig_h":"10.0.0.1","server_name":"two\nlines","version":"-","cipher":"(empty)","cert_chain_fuids":["Ff1"]}` + "\n" +
		`{"ts":13,"uid":"\u0023C13","id.resp_h":"\u0023h","server_name":"-","cert_chain_fuids":["Ff,1"]}` + "\n" +
		`{"ts":"#14","uid":"C14"}` + "\n" +
		`{"ts":15,"uid":"C\\15","version":"(empty)","server_name":"(empty)","cert_chain_fuids":["Ff1","F\u002c1"]}` + "\n",
		`{"ts":11,"id":"Ff1","certificate.subject":"CN=f","certificate.issuer":"CN=f"}` + "\n" +
			`{"ts":11,"id":"Ff","certificate.subject":"CN=f","certificate.issuer":"CN=f"}` + "\n" +
			`{"ts":11,"id":"1","certificate.subject":"CN=f","certificate.issuer":"CN=f"}` + "\n"},
}

func FuzzJSONDecodeEquivalence(f *testing.F) {
	for _, c := range jsonSeedCases {
		f.Add(c[0], c[1])
	}
	f.Fuzz(func(t *testing.T, ssl, x509 string) {
		if len(ssl)+len(x509) > 1<<16 {
			t.Skip("oversized input")
		}
		diffJoins(t, JoinJSON, FastJoinJSON, ssl, x509)
	})
}

// TestFastJoinSeedEquivalence replays every fuzz seed deterministically so
// the wall holds in plain `go test` runs, not only under `make fuzz`.
func TestFastJoinSeedEquivalence(t *testing.T) {
	for i, c := range tsvSeedCases {
		t.Run(fmt.Sprintf("tsv-%d", i), func(t *testing.T) {
			diffJoins(t, Join, FastJoin, c[0], c[1])
		})
	}
	for i, c := range jsonSeedCases {
		t.Run(fmt.Sprintf("json-%d", i), func(t *testing.T) {
			diffJoins(t, JoinJSON, FastJoinJSON, c[0], c[1])
		})
	}
}

// TestFastJoinGeneratedLogs runs both decoders over writer-produced logs —
// the realistic shape the pipeline consumes — and over the same logs with
// truncation applied at every byte offset of the final record.
func TestFastJoinGeneratedLogs(t *testing.T) {
	var sslBuf, x509Buf strings.Builder
	now := time.Unix(1700000000, 0).UTC()
	xw := NewLogWriter(false, io.Discard, &x509Buf, now)
	certs := []*X509Record{
		{TS: now, ID: "Fleaf", Version: 3, Serial: "0A1B", Subject: "CN=leaf.example.edu,O=Campus", Issuer: "CN=Inter CA,O=Campus", NotValidBefore: now, NotValidAfter: now.Add(90 * 24 * time.Hour), KeyAlg: "rsa", SigAlg: "sha256WithRSAEncryption", KeyType: "rsa", KeyLength: 2048, SANDNS: []string{"leaf.example.edu", "alt.example.edu"}},
		{TS: now, ID: "Finter", Version: 3, Serial: "ff00", Subject: "CN=Inter CA,O=Campus", Issuer: "CN=Root CA", NotValidBefore: now, NotValidAfter: now.Add(3650 * 24 * time.Hour), KeyAlg: "ecdsa", SigAlg: "ecdsa-with-SHA256", KeyType: "ecdsa", KeyLength: 256},
		{TS: now, ID: "Froot", Version: 3, Serial: "01", Subject: "CN=Root CA", Issuer: "CN=Root CA", NotValidBefore: now, NotValidAfter: now.Add(7300 * 24 * time.Hour), KeyAlg: "rsa", SigAlg: "sha256WithRSAEncryption", KeyType: "rsa", KeyLength: 4096},
		// Odd values: spaces needing escapes, commas in DN values, empty SAN.
		{TS: now, ID: "Fodd", Serial: "", Subject: `CN=odd\, comma,OU=A  B`, Issuer: "CN=Inter CA,O=Campus", KeyType: "", SANDNS: nil},
	}
	ca := true
	certs[1].BasicConstraintsCA = &ca
	certs[2].BasicConstraintsCA = &ca
	for _, c := range certs {
		if err := xw.WriteX509(c); err != nil {
			t.Fatal(err)
		}
	}
	// Duplicate id row: first record must win.
	dup := *certs[0]
	dup.KeyLength = 9999
	if err := xw.WriteX509(&dup); err != nil {
		t.Fatal(err)
	}
	if err := xw.Close(now.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}

	sw := NewLogWriter(false, &sslBuf, io.Discard, now)
	conns := []*SSLRecord{
		{TS: now.Add(1 * time.Second), UID: "C1", OrigH: "10.0.0.1", OrigP: 40000, RespH: "10.0.0.2", RespP: 443, Version: "TLSv13", Cipher: "TLS_AES_128_GCM_SHA256", ServerName: "leaf.example.edu", Established: true, CertChainFUIDs: []string{"Fleaf", "Finter", "Froot"}},
		{TS: now.Add(2 * time.Second), UID: "C2", RespH: "10.0.0.2", RespP: 443, Resumed: true, CertChainFUIDs: []string{"Fleaf", "Finter", "Froot"}},
		{TS: now.Add(3 * time.Second), UID: "C3", RespH: "10.0.0.3", RespP: 8443, ServerName: "odd.example.edu", CertChainFUIDs: []string{"Fodd", "Finter"}},
		{TS: now.Add(4 * time.Second), UID: "C4", RespH: "10.0.0.4", RespP: 443, CertChainFUIDs: []string{"Fgone"}}, // unknown fuid
		{TS: now.Add(5 * time.Second), UID: "C5", RespH: "10.0.0.2", RespP: 443},                                    // no chain
	}
	for _, c := range conns {
		if err := sw.WriteSSL(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(now.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}

	ssl, x509 := sslBuf.String(), x509Buf.String()
	diffJoins(t, Join, FastJoin, ssl, x509)

	// Truncate the ssl stream at every offset across its final 200 bytes:
	// the mid-write tolerance must match cut by cut.
	for cut := len(ssl) - 200; cut < len(ssl); cut++ {
		diffJoins(t, Join, FastJoin, ssl[:cut], x509)
	}
	for cut := len(x509) - 200; cut < len(x509); cut++ {
		diffJoins(t, Join, FastJoin, ssl, x509[:cut])
	}
}

// TestFastJoinJSONGeneratedLines covers the JSON fast path and its fallback
// with hand-built ND-JSON streams.
func TestFastJoinJSONGeneratedLines(t *testing.T) {
	var ssl, x509 strings.Builder
	x509.WriteString(jsonX509Row)
	x509.WriteString(`{"ts":1700000000.75,"id":"Fb2","certificate.subject":"CN=Inter CA","certificate.issuer":"CN=Root CA","basic_constraints.ca":true,"certificate.key_length":256}` + "\n")
	// Duplicate id via the fallback path (escape in an unknown key).
	x509.WriteString(`{"ts":1700000009,"id":"Fa1","certificate.key_length":9999,"note":"dup \u0064"}` + "\n")
	for i := 0; i < 50; i++ {
		ssl.WriteString(jsonSSLRow)
		fmt.Fprintf(&ssl, `{"ts":%d.5,"uid":"Cx%d","id.resp_h":"10.1.0.%d","id.resp_p":443,"cert_chain_fuids":["Fa1","Fb2"],"established":true}`+"\n", 1700000100+i, i, i%7)
	}
	ssl.WriteString(`{"ts":1700000999,"uid":"Cmiss","cert_chain_fuids":["Fnope"]}` + "\n")
	ssl.WriteString(`{"uid":"CnoTS"}` + "\n")
	diffJoins(t, JoinJSON, FastJoinJSON, ssl.String(), x509.String())
}

// TestFastJoinChainCanonical pins the chain-interning contract: every
// connection delivering the same fuid sequence shares one canonical Chain
// value, so downstream consumers can retain it without copying.
func TestFastJoinChainCanonical(t *testing.T) {
	var sslBuf, x509Buf strings.Builder
	now := time.Unix(1700000000, 0).UTC()
	xw := NewLogWriter(false, io.Discard, &x509Buf, now)
	for _, id := range []string{"Fa", "Fb"} {
		if err := xw.WriteX509(&X509Record{TS: now, ID: id, Subject: "CN=" + id, Issuer: "CN=Root"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := xw.Close(now); err != nil {
		t.Fatal(err)
	}
	sw := NewLogWriter(false, &sslBuf, io.Discard, now)
	for i := 0; i < 4; i++ {
		if err := sw.WriteSSL(&SSLRecord{TS: now, UID: fmt.Sprintf("C%d", i), RespH: "10.0.0.1", RespP: 443, CertChainFUIDs: []string{"Fa", "Fb"}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(now); err != nil {
		t.Fatal(err)
	}
	var chains []certmodel.Chain
	err := FastJoin(strings.NewReader(sslBuf.String()), strings.NewReader(x509Buf.String()), func(c *Connection, err error) error {
		if err != nil {
			t.Fatalf("unexpected row error: %v", err)
		}
		chains = append(chains, c.Chain)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(chains) != 4 {
		t.Fatalf("got %d rows, want 4", len(chains))
	}
	for i := 1; i < len(chains); i++ {
		if &chains[0][0] != &chains[i][0] || chains[0][0] != chains[i][0] {
			t.Fatalf("chain %d is not the canonical shared value", i)
		}
	}
}
