package chain

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"certchains/internal/certmodel"
	"certchains/internal/dn"
	"certchains/internal/trustdb"
)

// randomChain builds a pseudo-random chain from a compact byte recipe so
// testing/quick can explore the analyzer's input space: each byte selects a
// subject from a small name pool and flags whether the link to the next
// certificate should match.
func randomChain(recipe []byte) certmodel.Chain {
	if len(recipe) == 0 {
		recipe = []byte{0}
	}
	if len(recipe) > 20 {
		recipe = recipe[:20]
	}
	rng := rand.New(rand.NewPCG(uint64(len(recipe)), uint64(recipe[0])))
	names := []string{"CN=A", "CN=B", "CN=C,O=X", "CN=D", "CN=E,O=Y"}
	bcs := []certmodel.BasicConstraints{certmodel.BCAbsent, certmodel.BCFalse, certmodel.BCTrue}

	ch := make(certmodel.Chain, len(recipe))
	subjects := make([]dn.DN, len(recipe))
	for i := range recipe {
		subjects[i] = dn.MustParse(names[int(recipe[i]>>2)%len(names)] + "," + "OU=n" + string(rune('a'+i%26)))
	}
	for i := range recipe {
		var issuer dn.DN
		switch {
		case recipe[i]&1 == 1 && i+1 < len(recipe):
			issuer = subjects[i+1] // matched link
		case recipe[i]&2 == 2:
			issuer = subjects[i] // self-signed
		default:
			issuer = dn.MustParse("CN=Outside " + string(rune('a'+int(recipe[i])%26)))
		}
		m := &certmodel.Meta{
			FP:      certmodel.Fingerprint(rune('0'+i)) + certmodel.Fingerprint(recipe),
			Issuer:  issuer,
			Subject: subjects[i],
			BC:      bcs[int(recipe[i]>>4)%len(bcs)],
		}
		_ = rng
		ch[i] = m
	}
	return ch
}

func quickClassifier(t *testing.T) *Classifier {
	t.Helper()
	db := trustdb.New()
	root := cert("CN=QRoot", "CN=QRoot", certmodel.BCTrue)
	db.AddRoot(trustdb.StoreMozilla, root)
	return NewClassifier(db)
}

// Property: runs partition the chain exactly — every certificate index
// belongs to exactly one run, runs are ordered and non-overlapping.
func TestQuickRunsPartitionChain(t *testing.T) {
	cl := quickClassifier(t)
	f := func(recipe []byte) bool {
		ch := randomChain(recipe)
		a := cl.Analyze(ch)
		if len(ch) <= 1 {
			return true
		}
		next := 0
		for _, r := range a.Runs {
			if r.Start != next || r.End < r.Start || r.End >= len(ch) {
				return false
			}
			next = r.End + 1
		}
		return next == len(ch)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: the mismatch ratio is in [0, 1] and equals the fraction of
// mismatched links.
func TestQuickMismatchRatioBounds(t *testing.T) {
	cl := quickClassifier(t)
	f := func(recipe []byte) bool {
		ch := randomChain(recipe)
		a := cl.Analyze(ch)
		if a.MismatchRatio < 0 || a.MismatchRatio > 1 {
			return false
		}
		if len(a.Links) == 0 {
			return a.MismatchRatio == 0
		}
		mism := 0
		for _, l := range a.Links {
			if !l.Matched() {
				mism++
			}
		}
		return a.MismatchRatio == float64(mism)/float64(len(a.Links))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: the complete run (when present) is one of the runs, and
// Unnecessary is exactly the complement of its index range.
func TestQuickCompleteAndUnnecessaryComplement(t *testing.T) {
	cl := quickClassifier(t)
	f := func(recipe []byte) bool {
		ch := randomChain(recipe)
		a := cl.Analyze(ch)
		if a.Complete == nil {
			return len(a.Unnecessary) == 0
		}
		found := false
		for _, r := range a.Runs {
			if r.Start == a.Complete.Start && r.End == a.Complete.End {
				found = true
			}
		}
		if !found {
			return false
		}
		inUnnecessary := make(map[int]bool)
		for _, i := range a.Unnecessary {
			if i >= a.Complete.Start && i <= a.Complete.End {
				return false // overlap
			}
			inUnnecessary[i] = true
		}
		for i := range ch {
			inside := i >= a.Complete.Start && i <= a.Complete.End
			if inside == inUnnecessary[i] {
				return false // must be exactly one of the two
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: verdict consistency — VerdictCompletePath implies zero
// unnecessary certificates; VerdictNoPath implies no leaf-headed run of
// length >= 2.
func TestQuickVerdictConsistency(t *testing.T) {
	cl := quickClassifier(t)
	f := func(recipe []byte) bool {
		ch := randomChain(recipe)
		a := cl.Analyze(ch)
		switch a.Verdict {
		case VerdictCompletePath:
			return len(a.Unnecessary) == 0 && a.Complete != nil && a.Complete.Len() == len(ch)
		case VerdictNoPath:
			for _, r := range a.Runs {
				if r.Len() >= 2 && r.HasLeaf {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: analysis is deterministic — analyzing the same chain twice
// yields identical links and verdicts.
func TestQuickAnalyzeDeterministic(t *testing.T) {
	cl := quickClassifier(t)
	f := func(recipe []byte) bool {
		ch := randomChain(recipe)
		a1 := cl.Analyze(ch)
		a2 := cl.Analyze(ch)
		if a1.Verdict != a2.Verdict || a1.MatchedVerdict != a2.MatchedVerdict ||
			a1.MismatchRatio != a2.MismatchRatio || len(a1.Runs) != len(a2.Runs) {
			return false
		}
		for i := range a1.Links {
			if a1.Links[i] != a2.Links[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the Category of a chain never depends on delivery order of the
// middle certificates (classification is per-certificate).
func TestQuickCategorizeOrderInvariant(t *testing.T) {
	cl := quickClassifier(t)
	f := func(recipe []byte) bool {
		ch := randomChain(recipe)
		if len(ch) < 3 {
			return true
		}
		cat1 := cl.Categorize(ch)
		// Swap two middle certificates.
		swapped := ch.Clone()
		swapped[1], swapped[2] = swapped[2], swapped[1]
		return cl.Categorize(swapped) == cat1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: every run's HasLeaf agrees with isLeaf at the run's start.
func TestQuickIsLeafAgreesWithRuns(t *testing.T) {
	cl := quickClassifier(t)
	f := func(recipe []byte) bool {
		ch := randomChain(recipe)
		a := cl.Analyze(ch)
		for _, r := range a.Runs {
			if r.HasLeaf != keysOf(ch).isLeaf(ch, r.Start) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
