package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"os"
	"sort"
)

// Manifest is a run's provenance record, emitted next to every report: what
// inputs, seed, and stage costs produced it. The full manifest carries
// wall-clock timings and build info; DeterministicSubset strips everything
// that may legitimately vary between equivalent runs, leaving a canonical
// JSON document that is byte-identical across worker widths (pinned by the
// seeds×widths equivalence suite).
type Manifest struct {
	// Tool is the producing binary ("certchain-analyze").
	Tool string `json:"tool"`
	// Seed and Scale are the scenario parameters.
	Seed  int64   `json:"seed"`
	Scale float64 `json:"scale"`
	// Workers is the shard width the run used (reports are width-invariant;
	// the manifest records the width for cost attribution).
	Workers int `json:"workers"`
	// Flags are the invocation's set flags, name → value.
	Flags map[string]string `json:"flags,omitempty"`
	// Inputs digest every input file consumed.
	Inputs []InputDigest `json:"inputs,omitempty"`
	// Stages are the tracer's per-stage aggregates.
	Stages []StageStat `json:"stages,omitempty"`
	// ReportSHA256 is the hex digest of the rendered report bytes.
	ReportSHA256 string `json:"report_sha256,omitempty"`
	// WallNS is the end-to-end wall time of the traced run.
	WallNS int64 `json:"wall_ns,omitempty"`
	// Build identifies the producing binary's build.
	Build BuildInfo `json:"build"`
}

// InputDigest identifies one input file by content.
type InputDigest struct {
	Path   string `json:"path"`
	SHA256 string `json:"sha256"`
	Bytes  int64  `json:"bytes"`
}

// DigestReader hashes a raw input stream as its consumer reads it, so an
// input file is digested in the same pass that loads it.
type DigestReader struct {
	r io.Reader
	h hash.Hash
	n int64
}

// NewDigestReader digests what is read from r.
func NewDigestReader(r io.Reader) *DigestReader {
	return &DigestReader{r: r, h: sha256.New()}
}

func (d *DigestReader) Read(b []byte) (int, error) {
	n, err := d.r.Read(b)
	d.h.Write(b[:n])
	d.n += int64(n)
	return n, err
}

// Digest drains what the consumer left unread, so the digest covers the
// whole stream, and returns it under path.
func (d *DigestReader) Digest(path string) (InputDigest, error) {
	if _, err := io.Copy(io.Discard, d); err != nil {
		return InputDigest{}, fmt.Errorf("obs: digest %s: %w", path, err)
	}
	return InputDigest{Path: path, SHA256: hex.EncodeToString(d.h.Sum(nil)), Bytes: d.n}, nil
}

// DigestBytes digests in-memory input (reports, generated corpora).
func DigestBytes(name string, data []byte) InputDigest {
	sum := sha256.Sum256(data)
	return InputDigest{Path: name, SHA256: hex.EncodeToString(sum[:]), Bytes: int64(len(data))}
}

// SHA256Hex is the hex digest of data, for Manifest.ReportSHA256.
func SHA256Hex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// nondeterministicFlags are invocation flags excluded from the
// deterministic subset: worker lists, artifact paths, and operational knobs
// that never influence report bytes.
var nondeterministicFlags = map[string]bool{
	"workers":      true,
	"trace":        true,
	"manifest":     true,
	"dot":          true,
	"cpuprofile":   true,
	"memprofile":   true,
	"metrics-addr": true,
	"log-format":   true,
	"log-level":    true,
	// Distributed-topology knobs: which processes ran the partitions, how
	// leases were paced, and chaos throttles never reach report bytes.
	"local":    true,
	"lease":    true,
	"poll":     true,
	"addr":     true,
	"name":     true,
	"throttle": true,
}

// deterministicStage is a stage's width-invariant projection: the total
// records a stage processed is a pure function of the input (shards
// partition the same records), while span counts and wall times are not.
type deterministicStage struct {
	Stage   string `json:"stage"`
	Records int64  `json:"records"`
}

// deterministicManifest is the canonical subset; field order is the
// canonical serialization order.
type deterministicManifest struct {
	Tool         string               `json:"tool"`
	Seed         int64                `json:"seed"`
	Scale        float64              `json:"scale"`
	Flags        map[string]string    `json:"flags,omitempty"`
	Inputs       []InputDigest        `json:"inputs,omitempty"`
	Stages       []deterministicStage `json:"stages,omitempty"`
	ReportSHA256 string               `json:"report_sha256,omitempty"`
}

// DeterministicSubset renders the manifest's width- and timing-independent
// core as canonical JSON: fixed field order, sorted map keys
// (encoding/json sorts), stages sorted by name, operational flags dropped.
// Two equivalent runs — any worker width, any machine, same inputs —
// produce byte-identical subsets.
func (m *Manifest) DeterministicSubset() ([]byte, error) {
	d := deterministicManifest{
		Tool:         m.Tool,
		Seed:         m.Seed,
		Scale:        m.Scale,
		Inputs:       append([]InputDigest(nil), m.Inputs...),
		ReportSHA256: m.ReportSHA256,
	}
	if len(m.Flags) > 0 {
		d.Flags = make(map[string]string)
		for k, v := range m.Flags {
			if !nondeterministicFlags[k] {
				d.Flags[k] = v
			}
		}
		if len(d.Flags) == 0 {
			d.Flags = nil
		}
	}
	for _, st := range m.Stages {
		d.Stages = append(d.Stages, deterministicStage{Stage: st.Stage, Records: st.Records})
	}
	sort.Slice(d.Stages, func(i, j int) bool { return d.Stages[i].Stage < d.Stages[j].Stage })
	sort.Slice(d.Inputs, func(i, j int) bool { return d.Inputs[i].Path < d.Inputs[j].Path })
	return json.Marshal(d)
}

// JSON renders the full manifest, indented, with a trailing newline.
func (m *Manifest) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// WriteFile writes the full manifest to path.
func (m *Manifest) WriteFile(path string) error {
	data, err := m.JSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ValidateManifest is the schema checker the obs-smoke CI job runs over an
// emitted manifest file: required fields present, digests well-formed,
// stage aggregates sane.
func ValidateManifest(data []byte) error {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("obs: manifest JSON: %w", err)
	}
	if m.Tool == "" {
		return fmt.Errorf("obs: manifest missing tool")
	}
	if m.Workers < 1 {
		return fmt.Errorf("obs: manifest workers %d < 1", m.Workers)
	}
	if m.Build.GoVersion == "" {
		return fmt.Errorf("obs: manifest missing build.go_version")
	}
	if len(m.Stages) == 0 {
		return fmt.Errorf("obs: manifest has no stages")
	}
	for _, st := range m.Stages {
		if st.Stage == "" {
			return fmt.Errorf("obs: manifest stage with empty name")
		}
		if st.Spans < 1 {
			return fmt.Errorf("obs: manifest stage %q has no spans", st.Stage)
		}
		if st.Records < 0 || st.WallNS < 0 {
			return fmt.Errorf("obs: manifest stage %q has negative aggregates", st.Stage)
		}
	}
	for _, in := range m.Inputs {
		if err := checkHex256(in.SHA256); err != nil {
			return fmt.Errorf("obs: manifest input %q: %w", in.Path, err)
		}
	}
	if m.ReportSHA256 != "" {
		if err := checkHex256(m.ReportSHA256); err != nil {
			return fmt.Errorf("obs: manifest report_sha256: %w", err)
		}
	}
	// The deterministic subset must itself be derivable.
	if _, err := m.DeterministicSubset(); err != nil {
		return fmt.Errorf("obs: manifest subset: %w", err)
	}
	return nil
}

func checkHex256(s string) error {
	if len(s) != 64 {
		return fmt.Errorf("digest %q is not 64 hex chars", s)
	}
	if _, err := hex.DecodeString(s); err != nil {
		return fmt.Errorf("digest %q is not hex", s)
	}
	return nil
}
