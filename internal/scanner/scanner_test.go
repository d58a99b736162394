package scanner

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"certchains/internal/certmodel"
	"certchains/internal/chain"
	"certchains/internal/pki"
	"certchains/internal/serverfarm"
	"certchains/internal/trustdb"
)

var clock = time.Now()

// farmEnv starts a farm with a clean chain, a misconfigured chain, and a
// self-signed single.
type farmEnv struct {
	farm   *serverfarm.Farm
	clean  *serverfarm.Server
	dirty  *serverfarm.Server
	single *serverfarm.Server
	root   *pki.CA
	inter  *pki.CA
}

func newFarmEnv(t *testing.T) *farmEnv {
	t.Helper()
	m := pki.NewMint(31, clock)
	root, err := m.NewRoot(pki.Name("Farm Root", "Farm"))
	if err != nil {
		t.Fatal(err)
	}
	inter, err := root.NewIntermediate(pki.Name("Farm Issuing CA", "Farm"))
	if err != nil {
		t.Fatal(err)
	}
	leafA, err := inter.IssueLeaf(pki.Name("clean.example.com"), pki.WithSANs("clean.example.com"))
	if err != nil {
		t.Fatal(err)
	}
	leafB, err := inter.IssueLeaf(pki.Name("dirty.example.com"), pki.WithSANs("dirty.example.com"))
	if err != nil {
		t.Fatal(err)
	}
	stray, err := m.SelfSigned(pki.Name("tester"))
	if err != nil {
		t.Fatal(err)
	}
	selfSigned, err := m.SelfSigned(pki.Name("printer.local"), pki.WithSANs("printer.local"))
	if err != nil {
		t.Fatal(err)
	}

	farm := serverfarm.New()
	t.Cleanup(farm.Close)
	clean, err := farm.Add("clean.example.com", pki.Chain(leafA, inter.Cert))
	if err != nil {
		t.Fatal(err)
	}
	dirty, err := farm.Add("dirty.example.com", pki.Chain(leafB, inter.Cert, stray))
	if err != nil {
		t.Fatal(err)
	}
	single, err := farm.Add("printer.local", pki.Chain(selfSigned))
	if err != nil {
		t.Fatal(err)
	}
	return &farmEnv{farm: farm, clean: clean, dirty: dirty, single: single, root: root, inter: inter}
}

func TestScanCapturesPresentedChain(t *testing.T) {
	env := newFarmEnv(t)
	s := New(5 * time.Second)

	res := s.Scan(context.Background(), env.clean.Addr, "clean.example.com")
	if res.Err != nil {
		t.Fatalf("scan: %v", res.Err)
	}
	if !res.Reachable() {
		t.Fatal("clean server should be reachable")
	}
	if len(res.Chain) != 2 {
		t.Fatalf("captured %d certs, want 2", len(res.Chain))
	}
	if res.Chain[0].Subject.CommonName() != "clean.example.com" {
		t.Errorf("leaf CN = %q", res.Chain[0].Subject.CommonName())
	}
	if res.Chain[1].Subject.CommonName() != "Farm Issuing CA" {
		t.Errorf("second cert CN = %q", res.Chain[1].Subject.CommonName())
	}
	if res.Duration <= 0 {
		t.Error("duration not recorded")
	}
}

func TestScanSeesUnnecessaryCertificate(t *testing.T) {
	env := newFarmEnv(t)
	s := New(5 * time.Second)
	res := s.Scan(context.Background(), env.dirty.Addr, "dirty.example.com")
	if res.Err != nil {
		t.Fatalf("scan: %v", res.Err)
	}
	if len(res.Chain) != 3 {
		t.Fatalf("captured %d certs, want 3 (incl. unnecessary)", len(res.Chain))
	}
	if res.Chain[2].Subject.CommonName() != "tester" {
		t.Errorf("unnecessary cert CN = %q", res.Chain[2].Subject.CommonName())
	}

	// The analyzer must flag the extra certificate.
	db := trustdb.New()
	db.AddRoot(trustdb.StoreMozilla, env.root.Cert.Meta)
	if err := db.AddCCADBIntermediate(env.inter.Cert.Meta); err != nil {
		t.Fatal(err)
	}
	cl := chain.NewClassifier(db)
	a := cl.Analyze(res.Chain)
	if a.Verdict != chain.VerdictContainsPath {
		t.Errorf("verdict = %v, want contains-path", a.Verdict)
	}
	if len(a.Unnecessary) != 1 || a.Unnecessary[0] != 2 {
		t.Errorf("unnecessary = %v", a.Unnecessary)
	}
}

func TestScanSelfSignedSingle(t *testing.T) {
	env := newFarmEnv(t)
	s := New(5 * time.Second)
	res := s.Scan(context.Background(), env.single.Addr, "printer.local")
	if res.Err != nil {
		t.Fatalf("scan: %v", res.Err)
	}
	if len(res.Chain) != 1 || !res.Chain[0].SelfSigned() {
		t.Errorf("chain = %d certs, self-signed=%v", len(res.Chain), len(res.Chain) > 0 && res.Chain[0].SelfSigned())
	}
}

func TestScanUnreachable(t *testing.T) {
	s := New(500 * time.Millisecond)
	// A listener that is immediately closed: connection refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	res := s.Scan(context.Background(), addr, "gone.example.com")
	if res.Err == nil {
		t.Fatal("scan of closed port must fail")
	}
	if res.Reachable() {
		t.Error("unreachable endpoint must not be Reachable")
	}
}

func TestScanDialerInjection(t *testing.T) {
	s := New(time.Second)
	wantErr := errors.New("injected failure")
	s.Dialer = func(ctx context.Context, network, addr string) (net.Conn, error) {
		return nil, wantErr
	}
	res := s.Scan(context.Background(), "198.51.100.1:443", "x")
	if !errors.Is(res.Err, wantErr) {
		t.Errorf("err = %v, want injected", res.Err)
	}
}

func TestScanAll(t *testing.T) {
	env := newFarmEnv(t)
	s := New(5 * time.Second)
	targets := []Target{
		{Addr: env.clean.Addr, SNI: "clean.example.com"},
		{Addr: env.dirty.Addr, SNI: "dirty.example.com"},
		{Addr: env.single.Addr, SNI: "printer.local"},
	}
	results := s.ScanAll(context.Background(), targets, 2)
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	wantLens := []int{2, 3, 1}
	for i, res := range results {
		if res == nil || res.Err != nil {
			t.Fatalf("result %d failed: %+v", i, res)
		}
		if len(res.Chain) != wantLens[i] {
			t.Errorf("result %d chain len = %d, want %d (order must be preserved)", i, len(res.Chain), wantLens[i])
		}
	}
}

func TestCompare(t *testing.T) {
	env := newFarmEnv(t)
	db := trustdb.New()
	db.AddRoot(trustdb.StoreMozilla, env.root.Cert.Meta)
	if err := db.AddCCADBIntermediate(env.inter.Cert.Meta); err != nil {
		t.Fatal(err)
	}
	cl := chain.NewClassifier(db)

	oldChain := certmodel.Chain{env.single.Chain[0].Meta} // was self-signed single
	s := New(5 * time.Second)
	res := s.Scan(context.Background(), env.clean.Addr, "clean.example.com")
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	cmp := Compare(cl, env.clean.Addr, oldChain, res.Chain)
	if cmp.OldCategory != chain.NonPublicDBOnly {
		t.Errorf("old category = %v", cmp.OldCategory)
	}
	if cmp.NewCategory != chain.PublicDBOnly {
		t.Errorf("new category = %v", cmp.NewCategory)
	}
	if cmp.OldLen != 1 || cmp.NewLen != 2 {
		t.Errorf("lengths = %d -> %d", cmp.OldLen, cmp.NewLen)
	}
	if cmp.NewVerdict != chain.VerdictCompletePath {
		t.Errorf("new verdict = %v", cmp.NewVerdict)
	}
}

func TestFarmLookupAndClose(t *testing.T) {
	env := newFarmEnv(t)
	if _, ok := env.farm.Lookup("clean.example.com"); !ok {
		t.Error("Lookup must find the server")
	}
	if _, ok := env.farm.Lookup("missing.example.com"); ok {
		t.Error("Lookup must miss unknown domains")
	}
	if got := len(env.farm.Servers()); got != 3 {
		t.Errorf("Servers = %d", got)
	}
}

func TestFarmRejectsBadChains(t *testing.T) {
	farm := serverfarm.New()
	defer farm.Close()
	if _, err := farm.Add("x", nil); err == nil {
		t.Error("empty chain must be rejected")
	}
	m := pki.NewMint(5, clock)
	root, _ := m.NewRoot(pki.Name("R"))
	leaf, _ := root.IssueLeaf(pki.Name("x.example.com"))
	leaf.Key = nil
	if _, err := farm.Add("x", pki.Chain(leaf)); !errors.Is(err, serverfarm.ErrNoLeafKey) {
		t.Errorf("err = %v, want ErrNoLeafKey", err)
	}
}
