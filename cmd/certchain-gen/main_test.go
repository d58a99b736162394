// Process-level test of the generator: the logs it writes by default are a
// capture the streaming ingest daemon can tail.
package main_test

import (
	"os/exec"
	"path/filepath"
	"testing"

	"certchains/internal/analysis"
	"certchains/internal/campus"
	"certchains/internal/ingest"
)

// TestGeneratedLogsTailCleanly: logs written with only -seed, -scale and -out
// set are in timestamp order, as Zeek writes them, so the daemon tailing
// them at its default window folds every connection into an open window and
// joins every one without orphans or forced drains.
func TestGeneratedLogsTailCleanly(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the generator")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "certchain-gen")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	logs := filepath.Join(dir, "logs")
	if out, err := exec.Command(bin, "-seed", "1", "-scale", "0.002", "-out", logs).CombinedOutput(); err != nil {
		t.Fatalf("certchain-gen: %v\n%s", err, out)
	}

	cfg := campus.DefaultConfig()
	cfg.Seed, cfg.Scale = 1, 0.002
	s, err := campus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ing := ingest.New(analysis.FromScenario(s), ingest.Config{
		SSLPath:  filepath.Join(logs, "ssl.log"),
		X509Path: filepath.Join(logs, "x509.log"),
	})
	defer ing.Close()
	if err := ing.PollOnce(); err != nil {
		t.Fatal(err)
	}
	if err := ing.Finish(); err != nil {
		t.Fatal(err)
	}
	st := ing.Stats()
	if st.LateConns != 0 || st.Joiner.Orphans != 0 || st.Joiner.Forced != 0 {
		t.Errorf("%d late connections, %d orphans, %d forced drains; want none", st.LateConns, st.Joiner.Orphans, st.Joiner.Forced)
	}
	if st.Observations == 0 {
		t.Error("the daemon folded no observations")
	}
}
