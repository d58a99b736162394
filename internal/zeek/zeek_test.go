package zeek

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"certchains/internal/certmodel"
	"certchains/internal/dn"
)

var ts0 = time.Date(2020, 9, 1, 12, 30, 45, 0, time.UTC)

func TestWriterHeaderAndClose(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Header{Path: "test", Fields: []string{"a", "b"}, Types: []string{"string", "count"}, Open: ts0})
	if err := w.WriteRecord([]string{"hello", "42"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(ts0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"#separator \\x09", "#path\ttest", "#fields\ta\tb", "#types\tstring\tcount", "hello\t42", "#close\t2020-09-01-13-30-45"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestWriterFieldCountMismatch(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Header{Path: "t", Fields: []string{"a"}, Types: []string{"string"}, Open: ts0})
	if err := w.WriteRecord([]string{"x", "y"}); err == nil {
		t.Error("mismatched value count must error")
	}
}

func TestWriterHeaderMismatch(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Header{Path: "t", Fields: []string{"a", "b"}, Types: []string{"string"}, Open: ts0})
	if err := w.WriteRecord([]string{"x", "y"}); err == nil {
		t.Error("fields/types mismatch must error")
	}
}

func TestEscaping(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Header{Path: "t", Fields: []string{"v"}, Types: []string{"string"}, Open: ts0})
	weird := "tab\there newline\nthere back\\slash"
	if err := w.WriteRecord([]string{weird}); err != nil {
		t.Fatal(err)
	}
	w.Close(ts0)

	r := NewReader(&buf)
	rec, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := rec.Get("v"); got != weird {
		t.Errorf("round trip = %q, want %q", got, weird)
	}
}

func TestUnsetAndEmpty(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Header{Path: "t", Fields: []string{"a", "b"}, Types: []string{"string", "string"}, Open: ts0})
	w.WriteRecord([]string{"", EmptyField})
	w.Close(ts0)

	r := NewReader(&buf)
	rec, _ := r.Read()
	if _, ok := rec.Get("a"); ok {
		t.Error("empty string should be written unset and read as absent")
	}
	if v, ok := rec.Get("b"); !ok || v != "" {
		t.Error("(empty) should read as present empty string")
	}
}

func TestReaderErrors(t *testing.T) {
	// Data before #fields.
	r := NewReader(strings.NewReader("data\twithout\theader\n"))
	if _, err := r.Read(); err == nil {
		t.Error("data before header must error")
	}
	// Wrong column count.
	in := "#fields\ta\tb\n#types\tstring\tstring\nonly-one\n"
	r = NewReader(strings.NewReader(in))
	if _, err := r.Read(); err == nil {
		t.Error("column count mismatch must error")
	}
}

func TestReadAll(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Header{Path: "t", Fields: []string{"n"}, Types: []string{"count"}, Open: ts0})
	for i := 0; i < 5; i++ {
		w.WriteRecord([]string{string(rune('0' + i))})
	}
	w.Close(ts0)
	recs, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Errorf("ReadAll = %d records", len(recs))
	}
}

func TestSSLRecordRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewLogWriter(false, &buf, io.Discard, ts0)
	in := &SSLRecord{
		TS:             ts0,
		UID:            "CUID1",
		OrigH:          "10.1.2.3",
		OrigP:          51234,
		RespH:          "93.184.216.34",
		RespP:          443,
		Version:        "TLSv12",
		Cipher:         "TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256",
		ServerName:     "www.example.com",
		Established:    true,
		CertChainFUIDs: []string{"Fa", "Fb", "Fc"},
	}
	if err := w.WriteSSL(in); err != nil {
		t.Fatal(err)
	}
	w.Close(ts0)

	rec, err := NewReader(&buf).Read()
	if err != nil {
		t.Fatal(err)
	}
	out, err := ParseSSLRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if out.UID != in.UID || out.OrigP != in.OrigP || out.RespP != in.RespP ||
		out.ServerName != in.ServerName || !out.Established || out.Resumed {
		t.Errorf("round trip mismatch: %+v", out)
	}
	if len(out.CertChainFUIDs) != 3 || out.CertChainFUIDs[1] != "Fb" {
		t.Errorf("chain fuids = %v", out.CertChainFUIDs)
	}
	if !out.TS.Equal(ts0) {
		t.Errorf("ts = %v, want %v", out.TS, ts0)
	}
}

func TestSSLRecordNoSNI(t *testing.T) {
	var buf bytes.Buffer
	w := NewLogWriter(false, &buf, io.Discard, ts0)
	w.WriteSSL(&SSLRecord{TS: ts0, UID: "C1", OrigH: "10.0.0.1", RespH: "1.2.3.4", RespP: 8443})
	w.Close(ts0)
	rec, _ := NewReader(&buf).Read()
	out, err := ParseSSLRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if out.ServerName != "" {
		t.Errorf("SNI = %q, want empty", out.ServerName)
	}
}

func TestParseSSLRecordMissingFields(t *testing.T) {
	if _, err := ParseSSLRecord(Record{}); err == nil {
		t.Error("missing ts must error")
	}
	if _, err := ParseSSLRecord(Record{"ts": "1598963445.0"}); err == nil {
		t.Error("missing uid must error")
	}
}

func boolPtr(b bool) *bool { return &b }

func TestX509RecordRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewLogWriter(false, io.Discard, &buf, ts0)
	in := &X509Record{
		TS: ts0, ID: "FxYz01", Version: 3, Serial: "0ABC",
		Subject:        "CN=leaf.example.com,O=Example",
		Issuer:         "CN=Example CA,O=Example",
		NotValidBefore: ts0.AddDate(0, -1, 0),
		NotValidAfter:  ts0.AddDate(1, 0, 0),
		KeyAlg:         "ecdsa", SigAlg: "ecdsa-sha256", KeyType: "ecdsa", KeyLength: 256,
		BasicConstraintsCA: boolPtr(false),
		SANDNS:             []string{"leaf.example.com", "alt.example.com"},
	}
	if err := w.WriteX509(in); err != nil {
		t.Fatal(err)
	}
	w.Close(ts0)

	rec, err := NewReader(&buf).Read()
	if err != nil {
		t.Fatal(err)
	}
	out, err := ParseX509Record(rec)
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != in.ID || out.Serial != in.Serial || out.KeyLength != 256 {
		t.Errorf("round trip mismatch: %+v", out)
	}
	if out.BasicConstraintsCA == nil || *out.BasicConstraintsCA {
		t.Error("basic_constraints.ca should be false")
	}
	if len(out.SANDNS) != 2 {
		t.Errorf("san.dns = %v", out.SANDNS)
	}
}

func TestX509BasicConstraintsAbsent(t *testing.T) {
	var buf bytes.Buffer
	w := NewLogWriter(false, io.Discard, &buf, ts0)
	w.WriteX509(&X509Record{TS: ts0, ID: "F1", Subject: "CN=a", Issuer: "CN=b",
		NotValidBefore: ts0, NotValidAfter: ts0.AddDate(1, 0, 0)})
	w.Close(ts0)
	rec, _ := NewReader(&buf).Read()
	out, err := ParseX509Record(rec)
	if err != nil {
		t.Fatal(err)
	}
	if out.BasicConstraintsCA != nil {
		t.Error("absent basic constraints must stay nil through the round trip")
	}
	m, err := out.ToMeta()
	if err != nil {
		t.Fatal(err)
	}
	if m.BC != certmodel.BCAbsent {
		t.Errorf("Meta BC = %v, want absent", m.BC)
	}
}

func TestToMetaFromMetaRoundTrip(t *testing.T) {
	iss := dn.MustParse("CN=Camp CA,O=Campus")
	sub := dn.MustParse("CN=svc.campus.edu")
	m := &certmodel.Meta{
		FP:        "FABCDEF",
		Issuer:    iss,
		Subject:   sub,
		SerialHex: "1f2e",
		NotBefore: ts0,
		NotAfter:  ts0.AddDate(1, 0, 0),
		KeyAlg:    certmodel.KeyECDSA,
		KeyBits:   256,
		BC:        certmodel.BCTrue,
		SAN:       []string{"svc.campus.edu"},
	}
	rec := FromMeta(m, ts0)
	m2, err := rec.ToMeta()
	if err != nil {
		t.Fatal(err)
	}
	if !m2.Issuer.Equal(m.Issuer) || !m2.Subject.Equal(m.Subject) {
		t.Error("DNs must survive the record round trip")
	}
	if m2.BC != certmodel.BCTrue || m2.SerialHex != "1f2e" || m2.FP != m.FP {
		t.Errorf("round trip meta = %+v", m2)
	}
}

func TestToMetaBadDN(t *testing.T) {
	r := &X509Record{TS: ts0, ID: "F1", Subject: "CN", Issuer: "CN=ok"}
	if _, err := r.ToMeta(); err == nil {
		t.Error("malformed subject DN must error")
	}
	r2 := &X509Record{TS: ts0, ID: "F1", Subject: "CN=ok", Issuer: "=bad"}
	if _, err := r2.ToMeta(); err == nil {
		t.Error("malformed issuer DN must error")
	}
}

func writeTestLogs(t *testing.T) (ssl, x509 *bytes.Buffer) {
	t.Helper()
	ssl, x509 = &bytes.Buffer{}, &bytes.Buffer{}
	xw := NewLogWriter(false, io.Discard, x509, ts0)
	certs := []struct{ id, sub, iss string }{
		{"Fleaf", "CN=www.site.edu", "CN=Site CA"},
		{"Fca", "CN=Site CA", "CN=Site Root"},
		{"Froot", "CN=Site Root", "CN=Site Root"},
	}
	for _, c := range certs {
		xw.WriteX509(&X509Record{TS: ts0, ID: c.id, Subject: c.sub, Issuer: c.iss,
			NotValidBefore: ts0.AddDate(0, -1, 0), NotValidAfter: ts0.AddDate(1, 0, 0)})
	}
	// Duplicate certificate observation: must be deduplicated.
	xw.WriteX509(&X509Record{TS: ts0.Add(time.Minute), ID: "Fleaf", Subject: "CN=www.site.edu", Issuer: "CN=Site CA",
		NotValidBefore: ts0.AddDate(0, -1, 0), NotValidAfter: ts0.AddDate(1, 0, 0)})
	xw.Close(ts0)

	sw := NewLogWriter(false, ssl, io.Discard, ts0)
	sw.WriteSSL(&SSLRecord{TS: ts0, UID: "C1", OrigH: "10.0.0.5", OrigP: 40000, RespH: "5.6.7.8", RespP: 443,
		ServerName: "www.site.edu", Established: true, CertChainFUIDs: []string{"Fleaf", "Fca", "Froot"}})
	sw.WriteSSL(&SSLRecord{TS: ts0.Add(time.Second), UID: "C2", OrigH: "10.0.0.6", OrigP: 40001, RespH: "5.6.7.8", RespP: 443,
		CertChainFUIDs: []string{"Fleaf", "Fmissing"}})
	sw.Close(ts0)
	return ssl, x509
}

func TestJoin(t *testing.T) {
	ssl, x509 := writeTestLogs(t)
	var conns []*Connection
	var joinErrs []error
	err := Join(ssl, x509, func(c *Connection, err error) error {
		if err != nil {
			joinErrs = append(joinErrs, err)
			return nil
		}
		conns = append(conns, c)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(conns) != 1 {
		t.Fatalf("joined %d connections, want 1", len(conns))
	}
	if len(joinErrs) != 1 {
		t.Fatalf("join errors = %d, want 1 (missing cert)", len(joinErrs))
	}
	c := conns[0]
	if c.SSL.UID != "C1" || len(c.Chain) != 3 {
		t.Errorf("connection = %+v chain len %d", c.SSL, len(c.Chain))
	}
	if c.Chain[0].Subject.CommonName() != "www.site.edu" {
		t.Error("chain order must follow cert_chain_fuids")
	}
	if !c.Chain[2].SelfSigned() {
		t.Error("root in chain should be self-signed")
	}
}

func TestJoinCallbackAbort(t *testing.T) {
	ssl, x509 := writeTestLogs(t)
	abort := io.ErrUnexpectedEOF
	err := Join(ssl, x509, func(c *Connection, err error) error { return abort })
	if err != abort {
		t.Errorf("Join must propagate the callback error, got %v", err)
	}
}

func TestFormatTimePrecision(t *testing.T) {
	tt := time.Unix(1598963445, 123456000).UTC()
	got := FormatTime(tt)
	if got != "1598963445.123456" {
		t.Errorf("FormatTime = %q", got)
	}
}

// Property: any printable string survives the writer->reader round trip.
func TestQuickFieldRoundTrip(t *testing.T) {
	f := func(s string) bool {
		clean := strings.Map(func(r rune) rune {
			if r == 0 || r == '\r' {
				return -1
			}
			return r
		}, s)
		if clean == "" || clean == UnsetField || clean == EmptyField {
			return true
		}
		var buf bytes.Buffer
		w := NewWriter(&buf, Header{Path: "q", Fields: []string{"v"}, Types: []string{"string"}, Open: ts0})
		if err := w.WriteRecord([]string{clean}); err != nil {
			return false
		}
		if err := w.Close(ts0); err != nil {
			return false
		}
		rec, err := NewReader(&buf).Read()
		if err != nil {
			return false
		}
		got, _ := rec.Get("v")
		return got == clean
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSSLWrite(b *testing.B) {
	w := NewLogWriter(false, io.Discard, io.Discard, ts0)
	rec := &SSLRecord{TS: ts0, UID: "C", OrigH: "10.0.0.1", OrigP: 1, RespH: "1.1.1.1", RespP: 443,
		ServerName: "bench.example.com", Established: true, CertChainFUIDs: []string{"Fa", "Fb"}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := w.WriteSSL(rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSSLParse(b *testing.B) {
	var buf bytes.Buffer
	w := NewLogWriter(false, &buf, io.Discard, ts0)
	for i := 0; i < 1000; i++ {
		w.WriteSSL(&SSLRecord{TS: ts0, UID: "C", OrigH: "10.0.0.1", OrigP: 1, RespH: "1.1.1.1", RespP: 443,
			ServerName: "bench.example.com", Established: true, CertChainFUIDs: []string{"Fa", "Fb"}})
	}
	w.Close(ts0)
	data := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewReader(bytes.NewReader(data))
		n := 0
		for {
			rec, err := r.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			if _, err := ParseSSLRecord(rec); err != nil {
				b.Fatal(err)
			}
			n++
		}
		if n != 1000 {
			b.Fatalf("parsed %d", n)
		}
	}
}

// TestConcatenatedLogs reads two rotated log files streamed back to back —
// the header block reappears mid-stream, as when catting ssl.log.1 ssl.log.
func TestConcatenatedLogs(t *testing.T) {
	var part1, part2 bytes.Buffer
	w1 := NewLogWriter(false, &part1, io.Discard, ts0)
	w1.WriteSSL(&SSLRecord{TS: ts0, UID: "C1", OrigH: "10.0.0.1", RespH: "1.1.1.1", RespP: 443})
	w1.Close(ts0)
	w2 := NewLogWriter(false, &part2, io.Discard, ts0.Add(time.Hour))
	w2.WriteSSL(&SSLRecord{TS: ts0.Add(time.Hour), UID: "C2", OrigH: "10.0.0.2", RespH: "1.1.1.1", RespP: 443})
	w2.Close(ts0.Add(time.Hour))

	combined := io.MultiReader(&part1, &part2)
	recs, err := NewReader(combined).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("read %d records from rotated stream, want 2", len(recs))
	}
	uids := map[string]bool{}
	for _, r := range recs {
		u, _ := r.Get("uid")
		uids[u] = true
	}
	if !uids["C1"] || !uids["C2"] {
		t.Errorf("uids = %v", uids)
	}
}

func TestIndexX509Direct(t *testing.T) {
	var x509 bytes.Buffer
	w := NewLogWriter(false, io.Discard, &x509, ts0)
	w.WriteX509(&X509Record{TS: ts0, ID: "Fi", Subject: "CN=i", Issuer: "CN=j",
		NotValidBefore: ts0, NotValidAfter: ts0.AddDate(1, 0, 0)})
	w.Close(ts0)
	idx, err := IndexX509(&x509)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 1 || idx["Fi"] == nil {
		t.Errorf("index = %v", idx)
	}
	// Malformed stream.
	if _, err := IndexX509(strings.NewReader("#fields\tts\n#types\ttime\nnotanumber\textra\n")); err == nil {
		t.Error("bad x509 stream must error")
	}
}

func TestCloseWithoutRecordsWritesHeader(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Header{Path: "empty", Fields: []string{"a"}, Types: []string{"string"}, Open: ts0})
	if err := w.Close(ts0); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "#path\tempty") || !strings.Contains(out, "#close") {
		t.Errorf("empty log missing header/trailer:\n%s", out)
	}
	// Close on a mismatched header surfaces the error.
	bad := NewWriter(&bytes.Buffer{}, Header{Path: "bad", Fields: []string{"a", "b"}, Types: []string{"string"}, Open: ts0})
	if err := bad.Close(ts0); err == nil {
		t.Error("Close with bad header must error")
	}
}

func TestFromMetaBCVariants(t *testing.T) {
	iss := dn.MustParse("CN=i")
	sub := dn.MustParse("CN=s")
	for _, bc := range []certmodel.BasicConstraints{certmodel.BCAbsent, certmodel.BCFalse, certmodel.BCTrue} {
		m := &certmodel.Meta{FP: "F", Issuer: iss, Subject: sub, NotBefore: ts0, NotAfter: ts0.AddDate(1, 0, 0), BC: bc}
		rec := FromMeta(m, ts0)
		back, err := rec.ToMeta()
		if err != nil {
			t.Fatal(err)
		}
		if back.BC != bc {
			t.Errorf("BC %v round-tripped to %v", bc, back.BC)
		}
	}
}
