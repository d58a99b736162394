package ingest_test

import (
	"bytes"
	"os"
	"regexp"
	"testing"
	"time"

	"certchains/internal/analysis"
	"certchains/internal/campus"
	"certchains/internal/chain"
	"certchains/internal/ingest"
)

// ingestStateGolden pins the sealed certchains/ingest-state bytes. Like the
// analysis-partial fixture it has no update flag: a codec change that moves a
// byte must arrive as an explicit, reviewed fixture change.
const ingestStateGolden = "testdata/state-ingest.json"

// savedUnix is the one wall-clock field of a daemon snapshot.
var savedUnix = regexp.MustCompile(`"saved_unix":\d+`)

func maskSaved(b []byte) []byte {
	return savedUnix.ReplaceAll(b, []byte(`"saved_unix":0`))
}

// stateFixtureObservations mirrors the analysis suite's fixture input: seed
// 1's first 12 interception observations with a chain and its first 24
// others, in scenario order.
func stateFixtureObservations(s *campus.Scenario) []*campus.Observation {
	var out []*campus.Observation
	icpt, other := 0, 0
	for _, o := range s.Observations {
		n, limit := &other, 24
		if o.Category == chain.Interception && !o.TLS13 {
			n, limit = &icpt, 12
		}
		if *n < limit {
			*n++
			out = append(out, o)
		}
	}
	return out
}

// goldenIngestor tails the fixture observations' replayed logs — x509.log
// whole, ssl.log cut at the line boundary past its midpoint — through one
// poll, leaving state in every layer: tail offsets, held connections, open
// aggregates, ring buckets and spill.
func goldenIngestor(t *testing.T) (*ingest.Ingestor, *analysis.Pipeline, ingest.Config) {
	t.Helper()
	s := scenario(t, 1)
	obs := stateFixtureObservations(s)
	var ssl, x509 bytes.Buffer
	if err := campus.Replay(obs, &ssl, &x509, campus.ReplayOptions{MaxConnsPerObservation: 2}); err != nil {
		t.Fatal(err)
	}
	half := ssl.Len() / 2
	cut := half + bytes.IndexByte(ssl.Bytes()[half:], '\n') + 1
	first, last := obs[0].First, obs[0].Last
	for _, o := range obs {
		if o.First.Before(first) {
			first = o.First
		}
		if o.Last.After(last) {
			last = o.Last
		}
	}
	sslPath, x509Path := writeLogs(t, t.TempDir(), ssl.Bytes()[:cut], x509.Bytes())
	cfg := ingest.Config{
		SSLPath:  sslPath,
		X509Path: x509Path,
		Window:   analysis.WindowConfig{Interval: last.Sub(first)/8 + time.Nanosecond, Buckets: 2, Workers: 2},
	}
	p := newPipeline(s)
	ing := ingest.New(p, cfg)
	t.Cleanup(func() { ing.Close() })
	if err := ing.PollOnce(); err != nil {
		t.Fatal(err)
	}
	return ing, p, cfg
}

// TestIngestStateGolden requires the fixture's exact bytes (saved_unix
// masked) from a daemon that ingested the fixture logs, and from one
// restored from the fixture that snapshots before polling again.
func TestIngestStateGolden(t *testing.T) {
	want, err := os.ReadFile(ingestStateGolden)
	if err != nil {
		t.Fatal(err)
	}
	ing, p, cfg := goldenIngestor(t)
	got, err := ing.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got = maskSaved(got); !bytes.Equal(got, want) {
		t.Errorf("Snapshot differs from %s (%d bytes, want %d)", ingestStateGolden, len(got), len(want))
	}

	// A restored daemon has not reopened its logs yet; its snapshot must
	// still carry the restored tail offsets.
	restored, err := ingest.Restore(p, cfg, want)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	re, err := restored.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if re = maskSaved(re); !bytes.Equal(re, want) {
		t.Errorf("Restore→Snapshot differs from %s (%d bytes, want %d)", ingestStateGolden, len(re), len(want))
	}
}
