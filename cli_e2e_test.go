package certchains_test

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"certchains"
)

// runCmd executes one of the repo's commands via `go run` and returns its
// combined output. These are end-to-end smoke tests of the actual binaries.
func runCmd(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	cmd.Dir = "."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run %v: %v\n%s", args, err, out)
	}
	return string(out)
}

// buildCmd compiles one of the repo's commands into a temp dir, for tests
// that run it more than once or need its stdout apart from its stderr.
func buildCmd(t *testing.T, pkg string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), filepath.Base(pkg))
	if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// runBin executes a built command with extra environment entries and
// returns its stdout alone.
func runBin(t *testing.T, env []string, bin string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), env...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, stderr.Bytes())
	}
	return out
}

func TestCLIGenAndAnalyze(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI e2e in -short mode")
	}
	dir := t.TempDir()
	out := runCmd(t, "./cmd/certchain-gen", "-out", dir, "-scale", "0.001", "-max-conns", "5")
	if !strings.Contains(out, "wrote") {
		t.Errorf("gen output: %s", out)
	}
	for _, f := range []string{"ssl.log", "x509.log"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("missing %s: %v", f, err)
		}
	}

	out = runCmd(t, "./cmd/certchain-analyze",
		"-ssl", filepath.Join(dir, "ssl.log"),
		"-x509", filepath.Join(dir, "x509.log"),
		"-scale", "0.001", "-revisit=false")
	for _, want := range []string{"Table 1", "Table 3", "321", "Figure 6"} {
		if !strings.Contains(out, want) {
			t.Errorf("analyze output missing %q", want)
		}
	}
}

func TestCLIAnalyzeJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI e2e in -short mode")
	}
	out := runCmd(t, "./cmd/certchain-analyze", "-scale", "0.001", "-json")
	if !strings.Contains(out, `"table3_hybrid"`) || !strings.Contains(out, `"total": 321`) {
		t.Errorf("JSON export missing hybrid absolutes:\n%.500s", out)
	}
}

func TestCLIServeAndScanDemo(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI e2e in -short mode")
	}
	out := runCmd(t, "./cmd/certchain-scan", "-demo")
	if !strings.Contains(out, "verdict=contains-matched-path") {
		t.Errorf("scan demo should flag the unnecessary certificate:\n%s", out)
	}
	if !strings.Contains(out, "printer.campus.test") {
		t.Errorf("scan demo should serve the self-signed printer:\n%s", out)
	}
}

func TestCLICTLog(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI e2e in -short mode")
	}
	out := runCmd(t, "./cmd/ctlog", "-scale", "0.001")
	for _, want := range []string{"tree head:", "STH signature valid: true", "inclusion proof for entry 0"} {
		if !strings.Contains(out, want) {
			t.Errorf("ctlog output missing %q:\n%s", want, out)
		}
	}
}

func TestCLILintPEM(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI e2e in -short mode")
	}
	// Mint a chain with an unnecessary certificate and write it as PEM.
	mint := certchains.NewMint(88, time.Now())
	root, err := mint.NewRoot(certchains.PkixName("Lint Root"))
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := root.IssueLeaf(certchains.PkixName("lint.example.test"), certchains.WithSANs("lint.example.test"))
	if err != nil {
		t.Fatal(err)
	}
	stray, err := mint.SelfSigned(certchains.PkixName("tester"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "chain.pem")
	var pemData []byte
	for _, c := range []*certchains.RealCertificate{leaf, root.Cert, stray} {
		pemData = append(pemData, c.PEM()...)
	}
	if err := os.WriteFile(path, pemData, 0o644); err != nil {
		t.Fatal(err)
	}

	out := runCmd(t, "./cmd/certchain-lint", "-pem", path)
	for _, want := range []string{"chain of 3 certificate(s)", "unnecessary-certificates", "drop-unnecessary", "proposed delivery"} {
		if !strings.Contains(out, want) {
			t.Errorf("lint output missing %q:\n%s", want, out)
		}
	}

	jsonOut := runCmd(t, "./cmd/certchain-lint", "-pem", path, "-json")
	for _, want := range []string{`"findings"`, `"unnecessary-certificates"`, `"summary"`} {
		if !strings.Contains(jsonOut, want) {
			t.Errorf("lint -json output missing %q:\n%s", want, jsonOut)
		}
	}

	sarifOut := runCmd(t, "./cmd/certchain-lint", "-pem", path, "-sarif")
	for _, want := range []string{"sarif-2.1.0", `"certchain-lint"`, "unnecessary-certificates", path} {
		if !strings.Contains(sarifOut, want) {
			t.Errorf("lint -sarif output missing %q:\n%s", want, sarifOut)
		}
	}

	listOut := runCmd(t, "./cmd/certchain-lint", "-list-checks", "-profile", "paper")
	for _, want := range []string{`profile "paper"`, "unnecessary-certificates", "cite:"} {
		if !strings.Contains(listOut, want) {
			t.Errorf("lint -list-checks output missing %q:\n%s", want, listOut)
		}
	}
}

func TestCLILintCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI e2e in -short mode")
	}
	dir := t.TempDir()
	runCmd(t, "./cmd/certchain-gen", "-seed", "5", "-scale", "0.001", "-out", dir)
	analyze := buildCmd(t, "./cmd/certchain-analyze")
	args := []string{"-ssl", filepath.Join(dir, "ssl.log"), "-x509", filepath.Join(dir, "x509.log"),
		"-seed", "5", "-scale", "0.001", "-lint", "strict"}
	one := runBin(t, []string{"GOMAXPROCS=1"}, analyze, args...)
	for _, want := range []string{`Corpus lint (profile "strict")`, "basic-constraints-absent", "serial-reuse clusters"} {
		if !bytes.Contains(one, []byte(want)) {
			t.Errorf("corpus lint output missing %q:\n%s", want, one)
		}
	}
	// The prevalence table must not depend on the pool width.
	six := runBin(t, []string{"GOMAXPROCS=6"}, analyze, args...)
	if !bytes.Equal(one, six) {
		t.Errorf("corpus lint output differs between GOMAXPROCS 1 and 6:\n%s\n---\n%s", one, six)
	}

	// Log-file -json is the export alone: nothing may precede the object.
	var export map[string]any
	if err := json.Unmarshal(runBin(t, nil, analyze, append(args, "-json")...), &export); err != nil {
		t.Errorf("log-file -json output is not JSON: %v", err)
	} else if export["lint"] == nil {
		t.Errorf("log-file -json export has no lint summary")
	}
}

func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping examples e2e in -short mode")
	}
	cases := []struct {
		path string
		want string
	}{
		{"./examples/quickstart", "complete matched path: positions 1..2"},
		{"./examples/interception-audit", "issuer-mismatch"},
		{"./examples/chain-doctor", "prescription: drop-unnecessary"},
		{"./examples/retrospective-scan", "strict presented-chain policy: REJECT"},
		{"./examples/live-interception", "CT cross-reference: issuer-mismatch"},
	}
	for _, c := range cases {
		out := runCmd(t, c.path)
		if !strings.Contains(out, c.want) {
			t.Errorf("%s output missing %q:\n%s", c.path, c.want, out)
		}
	}
}

func TestExampleCampusPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping examples e2e in -short mode")
	}
	out := runCmd(t, "./examples/campus-pipeline")
	for _, want := range []string{"reloaded", "Table 3", "321", "§5 Revisit"} {
		if !strings.Contains(out, want) {
			t.Errorf("campus-pipeline output missing %q", want)
		}
	}
}
