// Process-level smoke over the observability artifacts (the same checks the
// CI obs-smoke job runs): a real certchain-analyze invocation with -trace and
// -manifest must produce a Chrome trace with one span set per declared
// pipeline stage and a manifest that passes schema validation, whose report
// digest matches the bytes the run printed.
package main_test

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"certchains/internal/obs"
)

func TestObsArtifactsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary; skipped in -short")
	}
	bin := buildAnalyze(t)

	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	manifestPath := filepath.Join(dir, "run.manifest.json")
	cmd := exec.Command(bin,
		"-scale", "0.002",
		"-json",
		"-revisit=false",
		"-trace", tracePath,
		"-manifest", manifestPath,
	)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}

	traceData, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("trace not written: %v", err)
	}
	if err := obs.ValidateChromeTrace(traceData, "observe", "observe-shard", "merge", "finalize"); err != nil {
		t.Errorf("trace invalid: %v", err)
	}

	manifestData, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatalf("manifest not written: %v", err)
	}
	if err := obs.ValidateManifest(manifestData); err != nil {
		t.Errorf("manifest invalid: %v", err)
	}

	var m obs.Manifest
	if err := json.Unmarshal(manifestData, &m); err != nil {
		t.Fatal(err)
	}
	if m.Tool != "certchain-analyze" {
		t.Errorf("manifest tool = %q", m.Tool)
	}
	if m.Workers != 2 {
		t.Errorf("manifest workers = %d, want 2", m.Workers)
	}
	// -json prints the report bytes plus one trailing newline.
	printed := bytes.TrimSuffix(stdout.Bytes(), []byte("\n"))
	if got := obs.SHA256Hex(printed); m.ReportSHA256 != got {
		t.Errorf("manifest report_sha256 = %s, but printed report hashes to %s", m.ReportSHA256, got)
	}
	if m.Flags["scale"] != "0.002" {
		t.Errorf("manifest flags = %v, missing scale", m.Flags)
	}
	if sub, err := m.DeterministicSubset(); err != nil || len(sub) == 0 {
		t.Errorf("deterministic subset: %v", err)
	}
}
