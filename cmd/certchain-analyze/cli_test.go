// Process-level tests of the command line: flag combinations the command
// must refuse, the Graphviz figures both input modes draw, and the bytes
// -verify prints.
package main_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"certchains/internal/campus"
)

// buildAnalyze compiles the command into a temp dir.
func buildAnalyze(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "certchain-analyze")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// runAnalyze runs the built command and returns its stdout, failing the test
// if it exits non-zero.
func runAnalyze(t *testing.T, bin string, args ...string) []byte {
	t.Helper()
	var stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("certchain-analyze %v: %v\n%s", args, err, stderr.Bytes())
	}
	return out
}

// TestJSONRejectsVerifyAndDot: -json makes the export the whole of stdout,
// so -verify's check table and -dot's figures would be skipped silently.
// Each combination must fail before any work — here, before the log files
// (which do not exist) are opened — with an error naming both flags.
func TestJSONRejectsVerifyAndDot(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary; skipped in -short")
	}
	bin := buildAnalyze(t)
	missing := filepath.Join(t.TempDir(), "missing.log")
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-verify", []string{"-verify"}},
		{"-dot", []string{"-dot", t.TempDir()}},
	} {
		t.Run(strings.TrimPrefix(tc.flag, "-"), func(t *testing.T) {
			args := append([]string{"-json", "-ssl", missing, "-x509", missing}, tc.args...)
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(bin, args...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err == nil {
				t.Fatalf("certchain-analyze %v exited 0:\n%s", args, stdout.Bytes())
			}
			msg := stderr.String()
			if !strings.Contains(msg, "-json") || !strings.Contains(msg, tc.flag) {
				t.Errorf("error does not name -json and %s: %q", tc.flag, msg)
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout is not empty:\n%s", stdout.Bytes())
			}
		})
	}
}

// TestDOTMatchesAcrossModes draws Figures 5, 7 and 8 from an in-memory run
// and from capped-volume logs of the same scenario: the co-occurrence graphs
// depend only on which chains were seen, so the three files must be equal.
func TestDOTMatchesAcrossModes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary; skipped in -short")
	}
	const seed, scale = "1", "0.002"
	cfg := campus.DefaultConfig()
	cfg.Seed, cfg.Scale = 1, 0.002
	s, err := campus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	logs := t.TempDir()
	sslPath, x509Path := filepath.Join(logs, "ssl.log"), filepath.Join(logs, "x509.log")
	sslF, err := os.Create(sslPath)
	if err != nil {
		t.Fatal(err)
	}
	x509F, err := os.Create(x509Path)
	if err != nil {
		t.Fatal(err)
	}
	sslW, x509W := bufio.NewWriter(sslF), bufio.NewWriter(x509F)
	if err := campus.Replay(s.Observations, sslW, x509W, campus.ReplayOptions{MaxConnsPerObservation: 4}); err != nil {
		t.Fatal(err)
	}
	for _, err := range []error{sslW.Flush(), x509W.Flush(), sslF.Close(), x509F.Close()} {
		if err != nil {
			t.Fatal(err)
		}
	}

	bin := buildAnalyze(t)
	memDir, logDir := t.TempDir(), t.TempDir()
	runAnalyze(t, bin, "-seed", seed, "-scale", scale, "-revisit=false", "-dot", memDir)
	runAnalyze(t, bin, "-seed", seed, "-scale", scale, "-revisit=false", "-dot", logDir,
		"-ssl", sslPath, "-x509", x509Path)
	for _, name := range []string{"figure5.dot", "figure7.dot", "figure8.dot"} {
		mem, err := os.ReadFile(filepath.Join(memDir, name))
		if err != nil {
			t.Fatal(err)
		}
		fromLogs, err := os.ReadFile(filepath.Join(logDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(mem, []byte(" -- ")) {
			t.Errorf("%s has no edges:\n%.300s", name, mem)
		}
		if !bytes.Equal(mem, fromLogs) {
			t.Errorf("%s differs between in-memory and log-file runs", name)
		}
	}
}

// TestVerifyOutputDigest pins what -verify prints at seed 1, scale 0.002,
// with and without the §5 summary. §5 is analysed once for both the summary
// and its checks; the bytes are the ones two separate analyses printed.
func TestVerifyOutputDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary; skipped in -short")
	}
	bin := buildAnalyze(t)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-verify"}, "ea505949e49aa59c043cb05a736eb4cbf362ff8b56b1cd16c7ecc97dd2673f8a"},
		{[]string{"-verify", "-revisit=false"}, "3ad7d7ef7f2f865a9f9f963027bab4291528617e015f5e10cfc55ace73c19df8"},
	} {
		out := runAnalyze(t, bin, append([]string{"-seed", "1", "-scale", "0.002"}, tc.args...)...)
		sum := sha256.Sum256(out)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("certchain-analyze %v: stdout SHA-256 %s, want %s", tc.args, got, tc.want)
		}
	}
}
