package certchains_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// readmeCmdRow matches a README command-table row and captures the
	// command it runs.
	readmeCmdRow = regexp.MustCompile("^\\| `go run \\./cmd/([^ `]+)")
	// codeSpan captures the inline code spans of a row.
	codeSpan = regexp.MustCompile("`([^`]+)`")
	// flagUse captures a flag named inside a code span: -name, -name=v.
	flagUse = regexp.MustCompile(`(?:^|[\s(\[])-([a-z][a-z0-9-]*)`)
	// flagDef captures the name of a flag.Type("name", ...) or
	// flag.TypeVar(&v, "name", ...) definition.
	flagDef = regexp.MustCompile(`flag\.[A-Z]\w*\(\s*(?:&[\w.]+,\s*)?"([^"]+)"`)
)

// definedFlags reads the flag names a command defines from its non-test
// sources, without building it.
func definedFlags(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	flags := make(map[string]bool)
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range flagDef.FindAllSubmatch(src, -1) {
			flags[string(m[1])] = true
		}
	}
	return flags
}

// TestREADMECommandTable keeps README's command table honest: every row
// names an existing command, and every flag the row shows is one that
// command defines.
func TestREADMECommandTable(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, line := range strings.Split(string(readme), "\n") {
		m := readmeCmdRow.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		rows++
		dir := filepath.Join("cmd", m[1])
		if _, err := os.Stat(dir); err != nil {
			t.Errorf("README row names missing command %s: %s", dir, line)
			continue
		}
		defined := definedFlags(t, dir)
		for _, span := range codeSpan.FindAllStringSubmatch(line, -1) {
			for _, f := range flagUse.FindAllStringSubmatch(span[1], -1) {
				if !defined[f[1]] {
					t.Errorf("README row uses -%s, which %s does not define: %s", f[1], m[1], line)
				}
			}
		}
	}
	if rows == 0 {
		t.Fatal("README has no `go run ./cmd/...` command rows")
	}
}
