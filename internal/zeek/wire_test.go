package zeek

import (
	"encoding/json"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The ND-JSON wire structs the hand appenders replaced, marshalled by
// encoding/json: the reference appendSSLJSON and appendX509JSON must equal.

// jsonSSLRecord is the ssl.log wire form; pointers express Zeek's unset
// fields.
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

func optStr(s string) *string {
	if s == "" {
		return nil
	}
	return &s
}

// epochOf is the float the TSV time text denotes.
func epochOf(t time.Time) float64 {
	f, _ := strconv.ParseFloat(strconv.FormatFloat(float64(t.UnixNano())/1e9, 'f', 6, 64), 64)
	return f
}

func marshalSSLWire(t *testing.T, r *SSLRecord) []byte {
	t.Helper()
	data, err := json.Marshal(&jsonSSLRecord{
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
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func marshalX509Wire(t *testing.T, r *X509Record) []byte {
	t.Helper()
	data, err := json.Marshal(&jsonX509Record{
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
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// epochSeeds are the edges of appendEpoch's exact range and its rounding:
// zero, ±half a microsecond, a binary tie (1/128 s rounds half to even),
// the zero time.Time and the extremes, which take the strconv fallback.
var epochSeeds = []int64{
	0, 1, -1, 500, -500, 1500, 2500, 999_999_500, 7_812_500, -7_812_500,
	ts0.UnixNano(), ts0.UnixNano() + 500, ts0.UnixNano() + 1,
	time.Time{}.UnixNano(), time.Date(9999, 12, 31, 23, 59, 59, 999_999_999, time.UTC).UnixNano(),
	1 << 53, 1<<62 + 12345, math.MaxInt64, math.MinInt64, -1_000_000_000_000_000_000,
}

func TestAppendEpochSeeds(t *testing.T) {
	for _, ns := range epochSeeds {
		checkEpoch(t, ns)
	}
	// Quarter-microsecond steps across a capture date and across 2^33 s,
	// where the JSON form leaves its exact range.
	for _, base := range []int64{ts0.UnixNano(), 1 << 33 * 1e9, -1 << 33 * 1e9} {
		for k := int64(-5000); k <= 5000; k++ {
			checkEpoch(t, base+k*250)
		}
	}
}

// FuzzAppendEpoch: appendEpoch is strconv's six-decimal text and
// appendJSONEpoch is encoding/json's form of the float that text parses to,
// for any ns.
func FuzzAppendEpoch(f *testing.F) {
	for _, ns := range epochSeeds {
		f.Add(ns)
	}
	f.Fuzz(checkEpoch)
}

func checkEpoch(t *testing.T, ns int64) {
	want := strconv.FormatFloat(float64(ns)/1e9, 'f', 6, 64)
	if got := string(appendEpoch(nil, ns)); got != want {
		t.Fatalf("appendEpoch(%d) = %s, want %s", ns, got, want)
	}
	f, _ := strconv.ParseFloat(want, 64)
	wantJSON, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(appendJSONEpoch(nil, ns)); got != string(wantJSON) {
		t.Fatalf("appendJSONEpoch(%d) = %s, want %s", ns, got, wantJSON)
	}
}

// wireStrings picks a string vector from the fuzzer's bits: nil, empty, or
// s split on '|'.
func wireStrings(s string, pick uint8) []string {
	switch pick % 3 {
	case 0:
		return nil
	case 1:
		return []string{}
	}
	return strings.Split(s, "|")
}

func wireBool(pick uint8) *bool {
	switch pick % 3 {
	case 0:
		return nil
	case 1:
		return boolPtr(false)
	}
	return boolPtr(true)
}

// FuzzJSONWire: the hand appenders write exactly what encoding/json writes
// for the wire structs, for arbitrary strings (invalid UTF-8, control and
// HTML bytes, U+2028/9), unset fields, nil/empty vectors, a nil basic
// constraint and a zero key length.
func FuzzJSONWire(f *testing.F) {
	f.Add("CJ1", "10.9.8.7", "json.example.com", int64(443), ts0.UnixNano(), uint8(0x25))
	f.Add("", "", "", int64(0), int64(0), uint8(0))
	f.Add("<a&b>  ", "\x00\x1f\x7f\"\\", "\xff\xfe|caf\xc3\xa9|\xe2\x80", int64(-1), time.Time{}.UnixNano(), uint8(0xff))
	f.Add("CN=GoDaddy.com\\, Inc.", "\b\f\n\r\t", "a||b", int64(4096), int64(7_812_500), uint8(0x5a))
	f.Fuzz(func(t *testing.T, a, b, c string, n, ns int64, pick uint8) {
		at := time.Unix(0, ns)
		opt := func(bit uint8, s string) string {
			if pick&bit != 0 {
				return ""
			}
			return s
		}
		ssl := &SSLRecord{
			TS: at, UID: a, OrigH: b, OrigP: int(n), RespH: c, RespP: int(n >> 16),
			Version: opt(1, a), Cipher: opt(2, b), ServerName: opt(4, c),
			Resumed: pick&8 != 0, Established: pick&16 != 0,
			CertChainFUIDs: wireStrings(c, pick),
		}
		if got, want := appendSSLJSON(nil, ssl), marshalSSLWire(t, ssl); string(got) != string(want) {
			t.Fatalf("ssl:\n got %s\nwant %s", got, want)
		}
		keyLength := int(n)
		if pick&32 != 0 {
			keyLength = 0
		}
		x := &X509Record{
			TS: at, ID: a, Version: int(n), Serial: b, Subject: c, Issuer: a + c,
			NotValidBefore: time.Unix(0, n), NotValidAfter: time.Unix(0, ns^n),
			KeyAlg: opt(1, b), SigAlg: opt(2, c), KeyType: opt(4, a), KeyLength: keyLength,
			BasicConstraintsCA: wireBool(pick >> 6), SANDNS: wireStrings(b, pick>>3),
		}
		if pick&64 != 0 && pick&128 != 0 {
			x.NotValidAfter = time.Time{}
		}
		if got, want := appendX509JSON(nil, x), marshalX509Wire(t, x); string(got) != string(want) {
			t.Fatalf("x509:\n got %s\nwant %s", got, want)
		}
	})
}

// TestLogWriterAllocs is the writer's allocation ratchet: once its line
// buffer has grown, a row costs no allocation in either format.
func TestLogWriterAllocs(t *testing.T) {
	ssl := &SSLRecord{
		TS: ts0, UID: "C0000002a", OrigH: "10.0.0.1", OrigP: 40001, RespH: "203.0.113.9", RespP: 443,
		Version: "TLSv12", Cipher: "TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256", ServerName: "a\tb.example.com",
		Established: true, CertChainFUIDs: []string{"Fa", "#Fb"},
	}
	x := &X509Record{
		TS: ts0, ID: "Fa", Version: 3, Serial: "0A1B", Subject: `CN=GoDaddy.com\, Inc.,O=x`, Issuer: "CN=<Root> & Co",
		NotValidBefore: ts0.Add(-time.Hour), KeyAlg: "rsa", SigAlg: "sha256WithRSAEncryption", KeyType: "rsa",
		KeyLength: 2048, BasicConstraintsCA: boolPtr(true), SANDNS: []string{"a.example.com", "b.example.com "},
	}
	for _, ndjson := range []bool{false, true} {
		w := NewLogWriter(ndjson, io.Discard, io.Discard, ts0)
		if n := testing.AllocsPerRun(100, func() {
			if err := w.WriteSSL(ssl); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("json=%v: WriteSSL makes %v allocations per row, want 0", ndjson, n)
		}
		if n := testing.AllocsPerRun(100, func() {
			if err := w.WriteX509(x); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("json=%v: WriteX509 makes %v allocations per row, want 0", ndjson, n)
		}
	}
}

func BenchmarkX509Write(b *testing.B) {
	x := &X509Record{
		TS: ts0, ID: "Fa", Version: 3, Serial: "0A1B", Subject: "CN=bench.example.com,O=Bench", Issuer: "CN=Bench CA,O=Bench",
		NotValidBefore: ts0.Add(-time.Hour), NotValidAfter: ts0.Add(time.Hour), KeyAlg: "ecdsa", SigAlg: "ecdsa-sha256",
		KeyType: "ecdsa", KeyLength: 256, BasicConstraintsCA: boolPtr(false), SANDNS: []string{"bench.example.com"},
	}
	for _, ndjson := range []bool{false, true} {
		name := "tsv"
		if ndjson {
			name = "json"
		}
		b.Run(name, func(b *testing.B) {
			w := NewLogWriter(ndjson, io.Discard, io.Discard, ts0)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := w.WriteX509(x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
