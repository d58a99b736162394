package zeek

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"certchains/internal/certmodel"
)

func TestJSONSSLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewLogWriter(true, &buf, io.Discard, time.Time{})
	in := &SSLRecord{
		TS:             ts0,
		UID:            "CJ1",
		OrigH:          "10.9.8.7",
		OrigP:          40001,
		RespH:          "203.0.113.9",
		RespP:          443,
		Version:        "TLSv12",
		Cipher:         "TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256",
		ServerName:     "json.example.com",
		Established:    true,
		CertChainFUIDs: []string{"Fj1", "Fj2"},
	}
	if err := w.WriteSSL(in); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(time.Time{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"id.orig_h":"10.9.8.7"`) {
		t.Errorf("wire format: %s", buf.String())
	}

	rec, err := NewJSONReader(&buf).Read()
	if err != nil {
		t.Fatal(err)
	}
	out, err := ParseSSLRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if out.UID != in.UID || out.OrigP != in.OrigP || out.ServerName != in.ServerName ||
		!out.Established || len(out.CertChainFUIDs) != 2 {
		t.Errorf("round trip = %+v", out)
	}
	if !out.TS.Equal(ts0) {
		t.Errorf("ts = %v, want %v", out.TS, ts0)
	}
}

func TestJSONSSLNoSNI(t *testing.T) {
	var buf bytes.Buffer
	w := NewLogWriter(true, &buf, io.Discard, time.Time{})
	w.WriteSSL(&SSLRecord{TS: ts0, UID: "CJ2", OrigH: "10.0.0.1", RespH: "1.2.3.4", RespP: 8443})
	w.Close(time.Time{})
	// Absent SNI must be omitted on the wire, not rendered as "".
	if strings.Contains(buf.String(), "server_name") {
		t.Errorf("unset SNI serialized: %s", buf.String())
	}
	rec, _ := NewJSONReader(&buf).Read()
	out, err := ParseSSLRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if out.ServerName != "" {
		t.Errorf("SNI = %q", out.ServerName)
	}
}

func TestJSONX509RoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewLogWriter(true, io.Discard, &buf, time.Time{})
	in := &X509Record{
		TS: ts0, ID: "FJx", Version: 3, Serial: "1A2B",
		Subject:        "CN=json.example.com,O=J",
		Issuer:         "CN=JSON CA,O=J",
		NotValidBefore: ts0.AddDate(0, -1, 0),
		NotValidAfter:  ts0.AddDate(1, 0, 0),
		KeyType:        "ecdsa", KeyLength: 256,
		BasicConstraintsCA: boolPtr(true),
		SANDNS:             []string{"json.example.com"},
	}
	if err := w.WriteX509(in); err != nil {
		t.Fatal(err)
	}
	w.Close(time.Time{})
	rec, err := NewJSONReader(&buf).Read()
	if err != nil {
		t.Fatal(err)
	}
	out, err := ParseX509Record(rec)
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != "FJx" || out.Serial != "1A2B" || out.KeyLength != 256 {
		t.Errorf("round trip = %+v", out)
	}
	if out.BasicConstraintsCA == nil || !*out.BasicConstraintsCA {
		t.Error("basic constraints lost")
	}
	m, err := out.ToMeta()
	if err != nil {
		t.Fatal(err)
	}
	if m.Subject.CommonName() != "json.example.com" {
		t.Errorf("meta subject = %q", m.Subject.CommonName())
	}
	if !m.NotBefore.Equal(in.NotValidBefore) {
		t.Errorf("notBefore = %v vs %v", m.NotBefore, in.NotValidBefore)
	}
}

func TestJSONX509AbsentBC(t *testing.T) {
	var buf bytes.Buffer
	w := NewLogWriter(true, io.Discard, &buf, time.Time{})
	w.WriteX509(&X509Record{TS: ts0, ID: "F", Subject: "CN=a", Issuer: "CN=b",
		NotValidBefore: ts0, NotValidAfter: ts0.AddDate(1, 0, 0)})
	w.Close(time.Time{})
	if strings.Contains(buf.String(), "basic_constraints") {
		t.Error("absent BC serialized")
	}
	rec, _ := NewJSONReader(&buf).Read()
	out, err := ParseX509Record(rec)
	if err != nil {
		t.Fatal(err)
	}
	if out.BasicConstraintsCA != nil {
		t.Error("absent BC must stay nil")
	}
}

func TestJSONReaderErrors(t *testing.T) {
	r := NewJSONReader(strings.NewReader("not json\n"))
	if _, err := r.Read(); err == nil {
		t.Error("bad JSON line must error")
	}
	// Empty lines are skipped.
	r = NewJSONReader(strings.NewReader("\n\n{\"ts\":1.5,\"uid\":\"C\"}\n"))
	rec, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := rec.Get("uid"); v != "C" {
		t.Errorf("uid = %q", v)
	}
}

func TestJSONReadAll(t *testing.T) {
	var buf bytes.Buffer
	w := NewLogWriter(true, &buf, io.Discard, time.Time{})
	for i := 0; i < 4; i++ {
		w.WriteSSL(&SSLRecord{TS: ts0.Add(time.Duration(i) * time.Second), UID: "C", OrigH: "10.0.0.1", RespH: "1.1.1.1", RespP: 443})
	}
	w.Close(time.Time{})
	recs, err := NewJSONReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Errorf("ReadAll = %d", len(recs))
	}
}

func TestJoinJSON(t *testing.T) {
	var ssl, x509 bytes.Buffer
	xw := NewLogWriter(true, io.Discard, &x509, time.Time{})
	xw.WriteX509(&X509Record{TS: ts0, ID: "FL", Subject: "CN=www.j.edu", Issuer: "CN=J CA",
		NotValidBefore: ts0.AddDate(0, -1, 0), NotValidAfter: ts0.AddDate(1, 0, 0)})
	xw.WriteX509(&X509Record{TS: ts0, ID: "FC", Subject: "CN=J CA", Issuer: "CN=J CA",
		NotValidBefore: ts0.AddDate(-1, 0, 0), NotValidAfter: ts0.AddDate(5, 0, 0)})
	xw.Close(time.Time{})

	sw := NewLogWriter(true, &ssl, io.Discard, time.Time{})
	sw.WriteSSL(&SSLRecord{TS: ts0, UID: "CJ", OrigH: "10.1.1.1", OrigP: 5000, RespH: "5.5.5.5", RespP: 443,
		ServerName: "www.j.edu", Established: true, CertChainFUIDs: []string{"FL", "FC"}})
	sw.Close(time.Time{})

	var joined []*Connection
	err := JoinJSON(&ssl, &x509, func(c *Connection, err error) error {
		if err != nil {
			t.Fatalf("join err: %v", err)
		}
		joined = append(joined, c)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(joined) != 1 || len(joined[0].Chain) != 2 {
		t.Fatalf("joined = %+v", joined)
	}
	if !joined[0].Chain[1].SelfSigned() {
		t.Error("CA cert should be self-signed after JSON round trip")
	}
}

func BenchmarkJSONSSLWrite(b *testing.B) {
	w := NewLogWriter(true, discard{}, io.Discard, time.Time{})
	rec := &SSLRecord{TS: ts0, UID: "C", OrigH: "10.0.0.1", OrigP: 1, RespH: "1.1.1.1", RespP: 443,
		ServerName: "bench.example.com", Established: true, CertChainFUIDs: []string{"Fa", "Fb"}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := w.WriteSSL(rec); err != nil {
			b.Fatal(err)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// TestJSONX509EscapesStayFast: writer-produced x509 lines whose DNs carry an
// escaped comma (JSON "\\") or other simple escapes decode on the fast
// tokenizer — no fallback of any reason — to the same strings the writer was
// given, while a \u escape still falls back.
func TestJSONX509EscapesStayFast(t *testing.T) {
	var buf bytes.Buffer
	w := NewLogWriter(true, io.Discard, &buf, time.Time{})
	recs := []*X509Record{
		{TS: ts0, ID: "Fe1", Serial: `0A\`, Subject: `CN=GoDaddy.com\, Inc.,O=x`, Issuer: `CN=Café\, "Ltd"`},
		{TS: ts0, ID: "Fe2", Subject: "CN=a/b\tc", Issuer: `CN=Café\, "Ltd"`},
	}
	for _, r := range recs {
		if err := w.WriteX509(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(time.Time{}); err != nil {
		t.Fatal(err)
	}
	d := NewRowDecoder(true, &certmodel.Interner{})
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != len(recs) {
		t.Fatalf("writer produced %d lines, want %d", len(lines), len(recs))
	}
	for i, line := range lines {
		if !strings.Contains(line, `\`) {
			t.Fatalf("line %d carries no escape: %s", i, line)
		}
		if st, err := d.decodeX509([]byte(line)); st != rowOK {
			t.Fatalf("line %d: status %d, %v", i, st, err)
		}
		r := recs[i]
		got := []string{string(d.x509.id), string(d.x509.serial), string(d.x509.subject), string(d.x509.issuer)}
		want := []string{r.ID, r.Serial, r.Subject, r.Issuer}
		for j := range got {
			if got[j] != want[j] {
				t.Errorf("line %d field %d = %q, want %q", i, j, got[j], want[j])
			}
		}
	}
	if fb := d.Fallbacks(); fb != [len(FallbackReasons)]int64{} {
		t.Fatalf("fallbacks %v, want none", fb)
	}
	if st, _ := d.decodeX509([]byte(`{"ts":1,"id":"F\u0031"}`)); st != rowOK || string(d.x509.id) != "F1" {
		t.Fatalf(`\u escape: status %d, id %q`, st, d.x509.id)
	}
	if fb := d.Fallbacks(); fb[fallbackEscape] != 1 {
		t.Fatalf("fallbacks %v, want one escape fallback for \\u", fb)
	}
}
