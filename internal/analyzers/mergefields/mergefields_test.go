package mergefields_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"certchains/internal/analyzers/analyzertest"
	"certchains/internal/analyzers/mergefields"
)

func TestIncompleteAccumulator(t *testing.T) {
	got := analyzertest.Findings(t, mergefields.Analyzer{}, filepath.Join("testdata", "incomplete"))
	analyzertest.Expect(t, got, []string{
		"acc.go:10 mergefields/merge-field",
		"acc.go:10 mergefields/snapshot-field",
		"acc.go:11 mergefields/nomerge-reason",
		// histo.total: forgotten by its MarshalJSON/UnmarshalJSON pair.
		"acc.go:36 mergefields/snapshot-field",
		// tally.extra: unexported in a json-tagged accumulator.
		"acc.go:52 mergefields/snapshot-field",
		"acc.go:9 mergefields/merge-field",
		"acc.go:9 mergefields/snapshot-field",
	})
}

func TestCompleteAccumulator(t *testing.T) {
	got := analyzertest.Findings(t, mergefields.Analyzer{}, filepath.Join("testdata", "complete"))
	analyzertest.Expect(t, got, nil)
}

// TestMutationDroppedMergeLine deletes one field's merge line from the clean
// fixture and asserts the analyzer reports exactly that field — the
// regression the whole analyzer exists to catch.
func TestMutationDroppedMergeLine(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "complete", "acc.go"))
	if err != nil {
		t.Fatal(err)
	}
	const marker = "drop-merge-total"
	var kept []string
	dropped := false
	for _, line := range strings.Split(string(src), "\n") {
		if strings.Contains(line, marker) {
			dropped = true
			continue
		}
		kept = append(kept, line)
	}
	if !dropped {
		t.Fatalf("fixture lost its %q mutation marker", marker)
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "acc.go"), []byte(strings.Join(kept, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	got := analyzertest.Findings(t, mergefields.Analyzer{}, dir)
	if len(got) != 1 || !strings.Contains(got[0], "mergefields/merge-field") {
		t.Fatalf("dropping the total merge line should yield one merge-field finding, got %v", got)
	}
}
