package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"
)

func testManifest() *Manifest {
	return &Manifest{
		Tool:    "certchain-analyze",
		Seed:    1,
		Scale:   0.002,
		Workers: 4,
		Flags: map[string]string{
			"seed":    "1",
			"scale":   "0.002",
			"workers": "4",
			"trace":   "/tmp/trace.json",
		},
		Inputs: []InputDigest{
			{Path: "x509.log", SHA256: strings.Repeat("b", 64), Bytes: 20},
			{Path: "ssl.log", SHA256: strings.Repeat("a", 64), Bytes: 10},
		},
		Stages: []StageStat{
			{Stage: "observe", Spans: 1, Records: 100, WallNS: 5000},
			{Stage: "merge", Spans: 1, Records: 0, WallNS: 100},
		},
		ReportSHA256: strings.Repeat("c", 64),
		WallNS:       123456,
		Build:        BuildInfo{GoVersion: "go1.23"},
	}
}

// TestDeterministicSubsetWidthInvariant pins satellite #3's core claim: two
// manifests from equivalent runs that differ in everything operational —
// worker width, span counts, wall times, artifact-path flags, field order —
// reduce to byte-identical canonical subsets.
func TestDeterministicSubsetWidthInvariant(t *testing.T) {
	a := testManifest()

	b := testManifest()
	b.Workers = 1
	b.WallNS = 999999
	b.Flags["workers"] = "1"
	b.Flags["trace"] = "/elsewhere/trace.json"
	b.Flags["cpuprofile"] = "/tmp/cpu.out"
	b.Flags["dot"] = "/elsewhere/figs"
	b.Build = BuildInfo{GoVersion: "go1.24", VCSRevision: "deadbeef"}
	// Scramble orders and operational stage data.
	b.Inputs[0], b.Inputs[1] = b.Inputs[1], b.Inputs[0]
	b.Stages = []StageStat{
		{Stage: "merge", Spans: 3, Records: 0, WallNS: 7},
		{Stage: "observe", Spans: 9, Records: 100, WallNS: 1},
	}

	subA, err := a.DeterministicSubset()
	if err != nil {
		t.Fatal(err)
	}
	subB, err := b.DeterministicSubset()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(subA, subB) {
		t.Errorf("equivalent runs produced different subsets:\n%s\nvs\n%s", subA, subB)
	}

	// The subset must still distinguish genuinely different runs.
	c := testManifest()
	c.Seed = 2
	subC, _ := c.DeterministicSubset()
	if bytes.Equal(subA, subC) {
		t.Error("subset does not reflect the seed")
	}
	d := testManifest()
	d.Stages[0].Records = 99
	subD, _ := d.DeterministicSubset()
	if bytes.Equal(subA, subD) {
		t.Error("subset does not reflect stage record counts")
	}
}

func TestDeterministicSubsetShape(t *testing.T) {
	sub, err := testManifest().DeterministicSubset()
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(sub, &doc); err != nil {
		t.Fatalf("subset is not JSON: %v", err)
	}
	for _, forbidden := range []string{"workers", "wall_ns", "build"} {
		if _, ok := doc[forbidden]; ok {
			t.Errorf("subset carries operational field %q", forbidden)
		}
	}
	if strings.Contains(string(sub), "trace.json") {
		t.Error("subset carries an operational flag value")
	}
	if !strings.Contains(string(sub), `"seed":1`) {
		t.Errorf("subset missing seed: %s", sub)
	}
	// Stages sort by name; spans and wall times are stripped.
	if !strings.Contains(string(sub), `"stages":[{"stage":"merge","records":0},{"stage":"observe","records":100}]`) {
		t.Errorf("subset stages not canonical: %s", sub)
	}
	// Inputs sort by path.
	if si, sx := strings.Index(string(sub), "ssl.log"), strings.Index(string(sub), "x509.log"); si < 0 || sx < 0 || si > sx {
		t.Errorf("subset inputs not sorted by path: %s", sub)
	}
}

func TestValidateManifestAccepts(t *testing.T) {
	data, err := testManifest().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(data, []byte("\n")) {
		t.Error("JSON() output missing trailing newline")
	}
	if err := ValidateManifest(data); err != nil {
		t.Errorf("valid manifest rejected: %v", err)
	}
}

func TestValidateManifestRejects(t *testing.T) {
	mutate := func(f func(*Manifest)) []byte {
		m := testManifest()
		f(m)
		data, err := m.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	cases := map[string][]byte{
		"not json":       []byte("nope"),
		"missing tool":   mutate(func(m *Manifest) { m.Tool = "" }),
		"zero workers":   mutate(func(m *Manifest) { m.Workers = 0 }),
		"no build":       mutate(func(m *Manifest) { m.Build = BuildInfo{} }),
		"no stages":      mutate(func(m *Manifest) { m.Stages = nil }),
		"unnamed stage":  mutate(func(m *Manifest) { m.Stages[0].Stage = "" }),
		"spanless stage": mutate(func(m *Manifest) { m.Stages[0].Spans = 0 }),
		"negative wall":  mutate(func(m *Manifest) { m.Stages[0].WallNS = -1 }),
		"short digest":   mutate(func(m *Manifest) { m.Inputs[0].SHA256 = "abc" }),
		"non-hex digest": mutate(func(m *Manifest) { m.Inputs[0].SHA256 = strings.Repeat("z", 64) }),
		"bad report sha": mutate(func(m *Manifest) { m.ReportSHA256 = "short" }),
	}
	for name, data := range cases {
		if err := ValidateManifest(data); err == nil {
			t.Errorf("%s: accepted invalid manifest", name)
		}
	}
}

func TestDigests(t *testing.T) {
	payload := []byte("certificate chains beyond public issuers")
	d := DigestBytes("mem", payload)
	if d.Path != "mem" || d.Bytes != int64(len(payload)) {
		t.Errorf("DigestBytes metadata = %+v", d)
	}
	if d.SHA256 != SHA256Hex(payload) {
		t.Error("DigestBytes and SHA256Hex disagree")
	}

	// A reader left part-read still digests the whole stream, under the
	// path it is given.
	r := NewDigestReader(bytes.NewReader(payload))
	if _, err := io.ReadFull(r, make([]byte, 5)); err != nil {
		t.Fatal(err)
	}
	fd, err := r.Digest("input.log")
	if err != nil {
		t.Fatal(err)
	}
	if fd.Path != "input.log" || fd.SHA256 != d.SHA256 || fd.Bytes != d.Bytes {
		t.Errorf("DigestReader = %+v, want digest %s over %d bytes", fd, d.SHA256, d.Bytes)
	}
	failing := NewDigestReader(io.MultiReader(bytes.NewReader(payload), iotest.ErrReader(errors.New("disk gone"))))
	if _, err := failing.Digest("input.log"); err == nil {
		t.Error("DigestReader over a failing read did not error")
	}
}

func TestManifestWriteFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.manifest.json")
	if err := testManifest().WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateManifest(data); err != nil {
		t.Errorf("written manifest invalid: %v", err)
	}
}
