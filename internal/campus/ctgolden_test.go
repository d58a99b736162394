package campus

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"
	"time"
)

// TestCTLogGolden pins the scenario's CT log at seeds 1 and 3, scale 0.002:
// its size, its Merkle root, and a SHA-256 over every entry's index,
// timestamp (ms), leaf fingerprint and chain fingerprints. The log's entries
// are what the analysis reads (§3.2.1, §4.2); the figures change only with a
// deliberate change to the generator.
func TestCTLogGolden(t *testing.T) {
	want := map[int64]struct {
		size          uint64
		root, entries string
	}{
		1: {1207,
			"5dc93387a2833120ea3684ee76956c3044ebe0077dab6968b7445b1d54e045d7",
			"6906c55476a767bb024cbb6e4d5afcd334088128d7c3774560d60190940e3852"},
		3: {1207,
			"a83ffb0362128a17abbebe23e7a5df45a9ad0284040d2165a8b6a22a821fbece",
			"0638bd4e8047316893772fdbb7ab2a7e4478beb52eaa2ddeb04cd70a4bfcbb9d"},
	}
	for _, seed := range []int64{1, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Seed, cfg.Scale = seed, 0.002
			s, err := Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			size := s.CT.Size()
			root := s.CT.TreeHead(time.Unix(0, 0)).RootHash
			h := sha256.New()
			var b [8]byte
			for _, e := range s.CT.GetEntries(0, size) {
				binary.BigEndian.PutUint64(b[:], e.Index)
				h.Write(b[:])
				binary.BigEndian.PutUint64(b[:], uint64(e.Timestamp.UnixMilli()))
				h.Write(b[:])
				fmt.Fprintf(h, "%s\x00%d", e.Cert.FP, len(e.ChainFPs))
				for _, fp := range e.ChainFPs {
					fmt.Fprintf(h, "\x00%s", fp)
				}
				h.Write([]byte{'\n'})
			}
			w := want[seed]
			if size != w.size {
				t.Errorf("size %d, want %d", size, w.size)
			}
			if got := hex.EncodeToString(root[:]); got != w.root {
				t.Errorf("root %s, want %s", got, w.root)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != w.entries {
				t.Errorf("entries digest %s, want %s", got, w.entries)
			}
		})
	}
}
