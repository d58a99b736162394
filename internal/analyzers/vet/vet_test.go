package vet_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"certchains/internal/analyzers/vet"
)

// writeRepo lays out a tiny tree with one determinism and one resilience
// violation.
func writeRepo(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	src := map[string]string{
		"clock/clock.go": "package clock\n\nimport \"time\"\n\nfunc Now() int64 { return time.Now().Unix() }\n",
		"poll/poll.go":   "package poll\n\nimport \"time\"\n\nfunc Wait() { time.Sleep(time.Second) }\n",
	}
	for rel, s := range src {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func run(t *testing.T, opts vet.Options) *vet.Result {
	t.Helper()
	res, err := vet.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunFindsViolations(t *testing.T) {
	root := writeRepo(t)
	res := run(t, vet.Options{Root: root})
	var got []string
	for _, f := range res.Findings {
		got = append(got, f.Pos.Filename+" "+f.Analyzer+"/"+f.Rule)
	}
	want := []string{
		"clock/clock.go determinism/time-now",
		"poll/poll.go resilience/raw-sleep",
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("finding %d: got %q, want %q", i, got[i], want[i])
		}
	}
}

func TestAllowlistSuppressesAndStaleFails(t *testing.T) {
	root := writeRepo(t)
	cfg := vet.Config{Allow: []vet.AllowEntry{
		{Analyzers: []string{"determinism"}, Path: "clock/", Reason: "the clock seam"},
		{Path: "gone/", Reason: "matches nothing"},
	}}
	res := run(t, vet.Options{Root: root, Config: cfg})
	if res.Suppressed != 1 {
		t.Errorf("suppressed = %d, want 1", res.Suppressed)
	}
	if len(res.Findings) != 1 || res.Findings[0].Rule != "raw-sleep" {
		t.Errorf("surviving findings = %v, want only raw-sleep", res.Findings)
	}
	if len(res.Stale) != 1 || !strings.Contains(res.Stale[0], `"gone/"`) {
		t.Errorf("stale = %v, want one entry for gone/", res.Stale)
	}
}

func TestRuleFilterInAllowEntry(t *testing.T) {
	root := writeRepo(t)
	cfg := vet.Config{Allow: []vet.AllowEntry{
		// Rule filter that does NOT match the produced rule: nothing suppressed.
		{Analyzers: []string{"resilience"}, Path: "poll/", Rules: []string{"raw-dial"}, Reason: "wrong rule"},
	}}
	res := run(t, vet.Options{Root: root, Config: cfg})
	if res.Suppressed != 0 || len(res.Findings) != 2 {
		t.Errorf("rule-filtered entry must not suppress raw-sleep: suppressed=%d findings=%d",
			res.Suppressed, len(res.Findings))
	}
}

func TestSelectAnalyzers(t *testing.T) {
	root := writeRepo(t)
	res := run(t, vet.Options{Root: root, Analyzers: []string{"determinism"}})
	if len(res.Findings) != 1 || res.Findings[0].Analyzer != "determinism" {
		t.Errorf("analyzer selection leaked findings: %v", res.Findings)
	}
	if _, err := vet.Run(vet.Options{Root: root, Analyzers: []string{"nonsense"}}); err == nil {
		t.Error("unknown analyzer name must error")
	}
}

func TestLoadConfigValidation(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	if _, err := vet.LoadConfig(filepath.Join(dir, "absent.json"), true); err != nil {
		t.Errorf("optional missing config must load empty, got %v", err)
	}
	if _, err := vet.LoadConfig(filepath.Join(dir, "absent.json"), false); err == nil {
		t.Error("required missing config must error")
	}
	if _, err := vet.LoadConfig(write("noreason.json", `{"allow":[{"path":"x/"}]}`), false); err == nil ||
		!strings.Contains(err.Error(), "reason") {
		t.Errorf("missing reason must error, got %v", err)
	}
	if _, err := vet.LoadConfig(write("nopath.json", `{"allow":[{"reason":"r"}]}`), false); err == nil ||
		!strings.Contains(err.Error(), "path") {
		t.Errorf("missing path must error, got %v", err)
	}
	if _, err := vet.LoadConfig(write("badname.json", `{"allow":[{"path":"x/","reason":"r","analyzers":["bogus"]}]}`), false); err == nil ||
		!strings.Contains(err.Error(), "bogus") {
		t.Errorf("unknown analyzer must error, got %v", err)
	}
	cfg, err := vet.LoadConfig(write("ok.json", `{"allow":[{"path":"x/","reason":"r","analyzers":["resilience"]}]}`), false)
	if err != nil || len(cfg.Allow) != 1 {
		t.Errorf("valid config: cfg=%v err=%v", cfg, err)
	}
}

func TestCheckedInConfigIsValid(t *testing.T) {
	// The repo's own allowlist must always load (schema drift breaks make vet).
	if _, err := vet.LoadConfig(filepath.Join("..", "..", "..", vet.DefaultConfigName), false); err != nil {
		t.Fatalf("checked-in %s is invalid: %v", vet.DefaultConfigName, err)
	}
}

func TestWriteJSON(t *testing.T) {
	root := writeRepo(t)
	res := run(t, vet.Options{Root: root})
	var buf bytes.Buffer
	if err := vet.WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Findings []struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Analyzer string `json:"analyzer"`
			Rule     string `json:"rule"`
		} `json:"findings"`
		Summary struct {
			Total      int `json:"total"`
			Suppressed int `json:"suppressed"`
		} `json:"summary"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("emitted JSON does not parse: %v\n%s", err, buf.String())
	}
	if doc.Summary.Total != 2 || len(doc.Findings) != 2 {
		t.Errorf("JSON summary/finding mismatch: %+v", doc)
	}
	if doc.Findings[0].File != "clock/clock.go" || doc.Findings[0].Rule != "time-now" {
		t.Errorf("first JSON finding = %+v", doc.Findings[0])
	}
}

func TestWriteSARIF(t *testing.T) {
	root := writeRepo(t)
	res := run(t, vet.Options{Root: root})
	var buf bytes.Buffer
	if err := vet.WriteSARIF(&buf, res); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID string `json:"ruleId"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("emitted SARIF does not parse: %v\n%s", err, buf.String())
	}
	if doc.Version != "2.1.0" || len(doc.Runs) != 1 {
		t.Fatalf("SARIF envelope: %+v", doc)
	}
	run := doc.Runs[0]
	if run.Tool.Driver.Name != "certchain-vet" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	if len(run.Results) != 2 || run.Results[0].RuleID != "determinism/time-now" {
		t.Errorf("SARIF results = %+v", run.Results)
	}
	// Rule metadata must cover every namespaced rule of the full suite.
	ids := map[string]bool{}
	for _, r := range run.Tool.Driver.Rules {
		ids[r.ID] = true
	}
	for _, want := range []string{"determinism/time-now", "resilience/raw-sleep", "hotpath/fmt-alloc", "locks/held-across-block"} {
		if !ids[want] {
			t.Errorf("SARIF rules missing %q (have %d rules)", want, len(ids))
		}
	}
}

func TestWriteText(t *testing.T) {
	root := writeRepo(t)
	cfg := vet.Config{Allow: []vet.AllowEntry{{Path: "gone/", Reason: "stale"}}}
	res := run(t, vet.Options{Root: root, Config: cfg})
	var buf bytes.Buffer
	if err := vet.WriteText(&buf, res); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"determinism/time-now", "resilience/raw-sleep", "stale-allowlist:"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
}
