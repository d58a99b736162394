package zeek_test

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"certchains/internal/analysis"
	"certchains/internal/campus"
	"certchains/internal/zeek"
)

// The grouped batch load must be invisible too: wherever the block
// boundaries fall and however many workers group, folding FastJoinGroups'
// groups (analysis.FoldConnGroups, LoadFormatFunc's reduction) yields what
// folding the oracle join's rows one by one yields — the same observations
// in the same order, or the same stream error.

// obsSnap is a comparable view of an observation: the chain by fingerprint,
// since the oracle and the fast join build distinct *Meta values.
type obsSnap struct {
	Chain                     []string
	ServerIP                  string
	Port                      int
	Domain                    string
	Conns, Established, NoSNI int64
	ClientIPs                 []string
	First, Last               time.Time
	TLS13                     bool
}

func snapObs(o *campus.Observation) obsSnap {
	s := obsSnap{
		ServerIP: o.ServerIP, Port: o.Port, Domain: o.Domain,
		Conns: o.Conns, Established: o.Established, NoSNI: o.NoSNI,
		ClientIPs: o.ClientIPs, First: o.First, Last: o.Last, TLS13: o.TLS13,
	}
	for _, m := range o.Chain {
		s.Chain = append(s.Chain, string(m.FP))
	}
	return s
}

// rowFold is the reference: the oracle map join's rows folded one at a time
// through the daemon's ConnAggregate.Fold under AppendConnKey, row errors
// dropped.
func rowFold(json bool, ssl, x509 string) ([]obsSnap, string) {
	join := zeek.Join
	if json {
		join = zeek.JoinJSON
	}
	byKey := make(map[string]*analysis.ConnAggregate)
	var order []*analysis.ConnAggregate
	var key []byte
	err := join(strings.NewReader(ssl), strings.NewReader(x509), func(c *zeek.Connection, err error) error {
		if err != nil {
			return nil
		}
		key = analysis.AppendConnKey(key[:0], c.Chain, c.SSL.RespH, c.SSL.RespP)
		a := byKey[string(key)]
		if a == nil {
			a = analysis.NewConnAggregate(c)
			byKey[string(key)] = a
			order = append(order, a)
		}
		a.Fold(c)
		return nil
	})
	if err != nil {
		return nil, err.Error()
	}
	var out []obsSnap
	for _, a := range order {
		out = append(out, snapObs(a.Finalize()))
	}
	return out, ""
}

// groupedFold is LoadFormatFunc's grouped pass at an explicit block size and
// worker count.
func groupedFold(json bool, ssl, x509 string, size, workers int) ([]obsSnap, string) {
	var out []obsSnap
	err := analysis.FoldConnGroups(func(fn func(*zeek.ConnGroup) error) error {
		return zeek.GroupBlocks(json, strings.NewReader(ssl), strings.NewReader(x509), fn, size, workers)
	}, func(o *campus.Observation) error {
		out = append(out, snapObs(o))
		return nil
	})
	if err != nil {
		return nil, err.Error()
	}
	return out, ""
}

func diffFolds(t *testing.T, what string, want []obsSnap, wantErr string, got []obsSnap, gotErr string, ssl, x509 string) {
	t.Helper()
	if gotErr != wantErr {
		t.Fatalf("%s: stream error diverged:\nrow fold: %q\ngrouped:  %q\nssl:\n%q\nx509:\n%q", what, wantErr, gotErr, ssl, x509)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d observations, row fold %d\nssl:\n%q\nx509:\n%q", what, len(got), len(want), ssl, x509)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: observation %d diverged:\nrow fold: %+v\ngrouped:  %+v\nssl:\n%q\nx509:\n%q", what, i, want[i], got[i], ssl, x509)
		}
	}
}

// diffGrouped checks one input at one block size and worker count.
func diffGrouped(t *testing.T, json bool, ssl, x509 string, size, workers int) {
	t.Helper()
	want, wantErr := rowFold(json, ssl, x509)
	got, gotErr := groupedFold(json, ssl, x509, size, workers)
	diffFolds(t, fmt.Sprintf("size=%d workers=%d", size, workers), want, wantErr, got, gotErr, ssl, x509)
}

func tsvConn(ts, uid, client, server, sni, established, fuids string) string {
	return strings.Join([]string{ts, uid, client, "40000", server, "443", "TLSv12", "-", sni, "F", established, fuids}, "\t") + "\n"
}

func tsvCert(id string) string {
	return strings.Replace(zeek.TSVSeedX509Row, "\tFa1\t", "\t"+id+"\t", 1)
}

func jsonConn(uid, server, sni string) string {
	return fmt.Sprintf(`{"ts":1700000001.5,"uid":"%s","id.orig_h":"10.0.0.1","id.resp_h":"%s","id.resp_p":443,"server_name":"%s","established":true,"cert_chain_fuids":["Fa1"]}`+"\n", uid, server, sni)
}

// groupedCases are the named shapes of the grouped pass; [0] is the ssl
// stream, [1] the x509 stream, [2] "json" for ND-JSON.
var groupedCases = map[string][3]string{
	"identity-split-across-blocks": func() [3]string {
		var b strings.Builder
		b.WriteString(zeek.TSVSSLHeader)
		for i := range 30 {
			fuids := []string{"Fa1", "Fa1,Fb2", "Fb2", "Fa1", "Fa1"}[i%5]
			server := []string{"10.0.0.2", "10.0.0.2", "10.0.0.2", "10.0.0.3", "10.0.0.2"}[i%5]
			row := tsvConn(fmt.Sprintf("17000000%02d.5", i), fmt.Sprintf("C%d", i), fmt.Sprintf("10.1.0.%d", i%3), server, "a.example.edu", "T", fuids)
			if i%5 == 4 {
				row = strings.Replace(row, "\t443\t", "\t8443\t", 1)
			}
			b.WriteString(row)
		}
		return [3]string{b.String(), zeek.TSVX509Header + tsvCert("Fa1") + tsvCert("Fb2")}
	}(),
	"first-sni-in-later-block": func() [3]string {
		var b strings.Builder
		b.WriteString(zeek.TSVSSLHeader)
		for i := range 12 {
			b.WriteString(tsvConn("1700000001.5", fmt.Sprintf("C%d", i), "10.1.0.1", "10.0.0.2", "-", "F", "Fa1"))
		}
		b.WriteString(tsvConn("1700000002.5", "Clate", "10.1.0.2", "10.0.0.2", "late.example.edu", "T", "Fa1"))
		b.WriteString(tsvConn("1700000003.5", "Clater", "10.1.0.3", "10.0.0.2", "later.example.edu", "T", "Fa1"))
		return [3]string{b.String(), zeek.TSVX509Header + tsvCert("Fa1")}
	}(),
	"empty-fuid-list": {zeek.TSVSSLHeader +
		tsvConn("1700000001.5", "C1", "10.1.0.1", "10.0.0.2", "-", "T", "-") +
		tsvConn("1700000002.5", "C2", "10.1.0.2", "10.0.0.2", "tls13.example.edu", "T", "(empty)") +
		tsvConn("1700000003.5", "C3", "10.1.0.1", "10.0.0.3", "-", "F", "-") +
		tsvConn("1700000004.5", "C4", "10.1.0.3", "10.0.0.2", "other.example.edu", "T", "-"),
		zeek.TSVX509Header + tsvCert("Fa1")},
	"unknown-certificate-drops-group": {zeek.TSVSSLHeader +
		tsvConn("1700000001.5", "C1", "10.1.0.1", "10.0.0.2", "a.example.edu", "T", "Fa1,Fmissing") +
		tsvConn("1700000002.5", "C2", "10.1.0.2", "10.0.0.2", "a.example.edu", "T", "Fa1") +
		tsvConn("1700000003.5", "C3", "10.1.0.3", "10.0.0.2", "b.example.edu", "T", "Fa1,Fmissing") +
		tsvConn("1700000004.5", "C4", "10.1.0.4", "10.0.0.2", "-", "F", "Fmissing") +
		tsvConn("1700000005.5", "C5", "10.1.0.5", "10.0.0.2", "c.example.edu", "T", "Fa1"),
		zeek.TSVX509Header + tsvCert("Fa1")},
	"fatal-line-mid-block": {zeek.TSVSSLHeader +
		strings.Repeat(tsvConn("1700000001.5", "C1", "10.1.0.1", "10.0.0.2", "a.example.edu", "T", "Fa1"), 6) +
		"1.0\tonly-two\n" +
		tsvConn("1700000002.5", "C2", "10.1.0.2", "10.0.0.2", "a.example.edu", "T", "Fa1"),
		zeek.TSVX509Header + tsvCert("Fa1")},
	"non-monotone-ts": func() [3]string {
		var b strings.Builder
		b.WriteString(zeek.TSVSSLHeader)
		for i, ts := range []string{"1700000005.5", "1700000003.25", "1700000009.0", "1700000001.125", "NaN", "+Inf", "-Inf", "-1.5", "1700000002.5", "1e300"} {
			b.WriteString(tsvConn(ts, fmt.Sprintf("C%d", i), "10.1.0.1", "10.0.0.2", "-", "T", "Fa1"))
		}
		return [3]string{b.String(), zeek.TSVX509Header + tsvCert("Fa1")}
	}(),
	"separator-bytes-in-ids": {zeek.TSVSSLHeader +
		tsvConn("1700000001.5", "C1", "10.1.0.1", "10.0.0.2", "-", "T", "x|y") +
		tsvConn("1700000002.5", "C2", "10.1.0.2", "10.0.0.2", "-", "T", "x,y") +
		tsvConn("1700000003.5", "C3", "10.1.0.3", "10.0.0.2|1", "-", "T", "x") +
		tsvConn("1700000004.5", "C4", "10.1.0.4", "1|10.0.0.2", "-", "T", "x|y"),
		zeek.TSVX509Header + tsvCert("x|y") + tsvCert("x") + tsvCert("y")},
	"json-fallback-rows-in-block": {
		jsonConn("C1", "10.0.0.2", "") +
			`{"ts":1700000002.5,"uid":"C\\u00752","id.orig_h":"10.0.0.9","id.resp_h":"10.0.0.2","id.resp_p":443,"server_name":"fallback.example.edu","cert_chain_fuids":["Fa1"]}` + "\n" +
			jsonConn("C3", "10.0.0.2", "fast.example.edu") +
			jsonConn("C4", "10.0.0.3", "") +
			`{"ts":1700000000.5,"uid":"C5","id.orig_h":"10.0.0.8","id.resp_h":"10.0.0.3","id.resp_p":443,"server_name":"fb2.example.edu","established":true,"cert_chain_fuids":["Fa1"],"nested":{"a":1}}` + "\n" +
			jsonConn("C6", "10.0.0.3", "late.example.edu") +
			`{"ts":1700000003.5,"uid":"C\\7","id.resp_h":"10.0.0.2","id.resp_p":443,"cert_chain_fuids":["Fmissing"]}` + "\n" +
			jsonConn("C8", "10.0.0.2", ""),
		zeek.JSONX509Row, "json"},
	// A fallback row (a \u escape) between two fast rows of its identity
	// carries that identity's first SNI: it must group with them, in order.
	"json-fallback-row-first-sni": {
		jsonConn("C1", "10.0.0.4", "") +
			`{"ts":1700000001.5,"uid":"C\u00752","id.orig_h":"10.0.0.7","id.resp_h":"10.0.0.4","id.resp_p":443,"server_name":"first.example.edu","cert_chain_fuids":["Fa1"]}` + "\n" +
			jsonConn("C3", "10.0.0.4", "second.example.edu"),
		zeek.JSONX509Row, "json"},
	"json-fatal-line-mid-block": {strings.Repeat(jsonConn("C1", "10.0.0.2", "a.example.edu"), 5) + `{"ts":` + "\n" + jsonConn("C2", "10.0.0.2", ""),
		zeek.JSONX509Row, "json"},
}

func FuzzGroupedLoadBlockCuts(f *testing.F) {
	for i, c := range zeek.TSVSeedCases {
		f.Add(c[0], c[1], false, uint16(1+i*7), uint8(i))
	}
	for i, c := range zeek.JSONSeedCases {
		f.Add(c[0], c[1], true, uint16(1+i*11), uint8(i))
	}
	for _, c := range groupedCases {
		f.Add(c[0], c[1], c[2] == "json", uint16(len(c[0])/3), uint8(len(c[0])))
	}
	f.Fuzz(func(t *testing.T, ssl, x509 string, json bool, size uint16, workers uint8) {
		if len(ssl)+len(x509) > 1<<16 {
			t.Skip("oversized input")
		}
		diffGrouped(t, json, ssl, x509, 1+int(size), 1+int(workers%4))
	})
}

// TestGroupedLoadBlockCuts replays the named cases and the row fuzzers'
// seeds at every block size up to one past the ssl stream's length, cycling
// the worker count, and the named cases through LoadFormatFunc itself at
// GOMAXPROCS 1 to 4.
func TestGroupedLoadBlockCuts(t *testing.T) {
	sweep := func(t *testing.T, json bool, ssl, x509 string) {
		for size := 1; size <= len(ssl)+1; size++ {
			diffGrouped(t, json, ssl, x509, size, 1+size%4)
		}
	}
	for name, c := range groupedCases {
		t.Run(name, func(t *testing.T) {
			json := c[2] == "json"
			sweep(t, json, c[0], c[1])
			format := analysis.FormatTSV
			if json {
				format = analysis.FormatJSON
			}
			want, wantErr := rowFold(json, c[0], c[1])
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
			for procs := 1; procs <= 4; procs++ {
				runtime.GOMAXPROCS(procs)
				var got []obsSnap
				gotErr := ""
				obs, err := analysis.LoadFormat(format, strings.NewReader(c[0]), strings.NewReader(c[1]))
				if err != nil {
					gotErr = err.Error()
				}
				for _, o := range obs {
					got = append(got, snapObs(o))
				}
				diffFolds(t, fmt.Sprintf("LoadFormat GOMAXPROCS=%d", procs), want, wantErr, got, gotErr, c[0], c[1])
			}
		})
	}
	for i, c := range zeek.TSVSeedCases {
		t.Run(fmt.Sprintf("tsv-%d", i), func(t *testing.T) { sweep(t, false, c[0], c[1]) })
	}
	for i, c := range zeek.JSONSeedCases {
		t.Run(fmt.Sprintf("json-%d", i), func(t *testing.T) { sweep(t, true, c[0], c[1]) })
	}
}
