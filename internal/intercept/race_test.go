// Concurrency regression tests: a single Registry is shared across all
// pipeline workers, so registration and lookup must survive the race
// detector, and a Detector shared by concurrent callers must stay race-free.
package intercept

import (
	"fmt"
	"sync"
	"testing"

	"certchains/internal/dn"
)

// TestRegistryConcurrent races Add against Lookup, Len and All.
func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	zs := dn.MustParse("CN=Zscaler Intermediate CA,O=Zscaler Inc.")
	reg.Add(&Issuer{DN: zs, Name: "Zscaler", Category: CategorySecurityNetwork})

	const workers, rounds = 6, 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if w%2 == 0 {
					d := dn.MustParse(fmt.Sprintf("CN=Proxy %d-%d,O=MITM", w, i))
					reg.Add(&Issuer{DN: d, Name: "Proxy", Category: CategoryOther})
				} else {
					if _, ok := reg.Lookup(zs); !ok {
						t.Error("registered issuer disappeared during writes")
						return
					}
					_ = reg.Len()
					_ = reg.All()
				}
			}
		}(w)
	}
	wg.Wait()
	if got, want := reg.Len(), 1+(workers/2)*rounds; got != want {
		t.Errorf("registry size = %d, want %d", got, want)
	}
}

// TestDetectorConcurrentExamine shares one detector across goroutines
// examining an overlapping set of leaves, exercising the trust database and
// CT log reads under contention; every goroutine must see the same verdicts.
func TestDetectorConcurrentExamine(t *testing.T) {
	d, _ := testDetector(t)
	public := meta("CN=Public Root", "CN=www.ok.com", "www.ok.com")
	noSNI := meta("CN=Mystery CA", "CN=whatever.local")
	noCT := meta("CN=Corp Internal CA", "CN=internal.corp.example", "internal.corp.example")

	const workers, rounds = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if v := d.Examine(public, "www.ok.com", at); v != NotCandidate {
					t.Errorf("public leaf verdict = %v", v)
					return
				}
				if v := d.Examine(noSNI, "", at); v != NoSNI {
					t.Errorf("no-SNI verdict = %v", v)
					return
				}
				if v := d.Examine(noCT, "internal.corp.example", at); v != NoCTRecord {
					t.Errorf("no-CT verdict = %v", v)
					return
				}
			}
		}()
	}
	wg.Wait()
}
