// Package dga detects the Domain Generation Algorithm certificate cluster
// the paper isolates in §4.3: single-certificate chains whose issuer and
// subject both carry randomly generated domain names of the same
// www[dot]<random>[dot]com shape, with distinct names and validity periods
// scattered between 4 and 365 days.
//
// Detection is heuristic, as in the paper: a domain label is scored for
// linguistic plausibility (vowel ratio and common-bigram density); labels
// scoring as gibberish in both the issuer and subject CN, under the same
// structural pattern but with different values, mark the certificate.
package dga

import (
	"strings"

	"certchains/internal/certmodel"
	"certchains/internal/stats"
)

// Thresholds for the gibberish score, chosen so that ordinary English-ish
// hostnames pass and uniform random consonant-heavy labels fail.
const (
	minLabelLen = 6
	// maxScore is the maximum plausibility score treated as gibberish.
	maxScore = 0.46
)

// commonBigrams holds frequent English bigrams; a random string hits few.
var commonBigrams = map[string]bool{}

func init() {
	for _, b := range []string{
		"th", "he", "in", "er", "an", "re", "on", "at", "en", "nd",
		"ti", "es", "or", "te", "of", "ed", "is", "it", "al", "ar",
		"st", "to", "nt", "ng", "se", "ha", "as", "ou", "io", "le",
		"ve", "co", "me", "de", "hi", "ri", "ro", "ic", "ne", "ea",
		"ra", "ce", "li", "ch", "ll", "be", "ma", "si", "om", "ur",
		"ca", "el", "ta", "la", "ns", "di", "fo", "ho", "pe", "ec",
		"pr", "no", "ct", "us", "ac", "ot", "il", "tr", "ly", "nc",
		"et", "ut", "ss", "so", "rs", "un", "lo", "wa", "ge", "ie",
		"wh", "ee", "wi", "em", "ad", "ol", "rt", "po", "we", "na",
	} {
		commonBigrams[b] = true
	}
}

// Score returns a plausibility score in [0, 1] for a domain label: higher is
// more natural-language-like. The score averages the vowel ratio closeness
// to English (≈0.40) and the common-bigram density.
func Score(label string) float64 {
	label = strings.ToLower(label)
	if len(label) == 0 {
		return 1
	}
	vowels := 0
	letters := 0
	for _, r := range label {
		if r >= 'a' && r <= 'z' {
			letters++
			switch r {
			case 'a', 'e', 'i', 'o', 'u', 'y':
				vowels++
			}
		}
	}
	if letters == 0 {
		return 0
	}
	vr := float64(vowels) / float64(letters)
	// Distance from the English vowel ratio, mapped to [0,1].
	vowelScore := 1 - abs(vr-0.40)/0.60
	if vowelScore < 0 {
		vowelScore = 0
	}

	bigrams := 0
	hits := 0
	for i := 0; i+1 < len(label); i++ {
		a, b := label[i], label[i+1]
		if a < 'a' || a > 'z' || b < 'a' || b > 'z' {
			continue
		}
		bigrams++
		if commonBigrams[label[i:i+2]] {
			hits++
		}
	}
	bigramScore := 0.0
	if bigrams > 0 {
		bigramScore = float64(hits) / float64(bigrams)
	}
	return 0.5*vowelScore + 0.5*bigramScore
}

func abs(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}

// dgaName extracts the candidate random label from a www.<label>.com name,
// returning ok=false when the name does not follow the cluster's pattern.
func dgaName(cn string) (string, bool) {
	cn = strings.ToLower(strings.TrimSpace(cn))
	if !strings.HasPrefix(cn, "www.") || !strings.HasSuffix(cn, ".com") {
		return "", false
	}
	label := cn[len("www.") : len(cn)-len(".com")]
	if len(label) < minLabelLen || strings.Contains(label, ".") {
		return "", false
	}
	return label, true
}

// IsDGACertificate reports whether a certificate matches the §4.3 DGA
// cluster: both CNs follow the www.<random>.com pattern with gibberish
// labels, the names differ, and the validity period is within [4, 365] days.
func IsDGACertificate(m *certmodel.Meta) bool {
	issLabel, ok := dgaName(m.Issuer.CommonName())
	if !ok {
		return false
	}
	subLabel, ok := dgaName(m.Subject.CommonName())
	if !ok {
		return false
	}
	if issLabel == subLabel {
		return false
	}
	if Score(issLabel) > maxScore || Score(subLabel) > maxScore {
		return false
	}
	d := m.ValidityDays()
	return d >= 4 && d <= 365
}

// ClusterStats aggregates the detected DGA cluster.
type ClusterStats struct {
	Certificates int               `json:"certificates,omitempty"`
	Connections  int               `json:"connections,omitempty"`
	ClientIPs    stats.Set[string] `json:"client_ips,omitempty"`
	MinValidity  int               `json:"min_validity"`
	MaxValidity  int               `json:"max_validity"`
}

// NewClusterStats returns an empty accumulator.
func NewClusterStats() *ClusterStats {
	return &ClusterStats{ClientIPs: stats.Set[string]{}, MinValidity: 1 << 30}
}

// Merge folds another accumulator into this one (sharded pipelines combine
// per-shard cluster stats; every field is commutative).
func (s *ClusterStats) Merge(o *ClusterStats) {
	if o == nil {
		return
	}
	s.Certificates += o.Certificates
	s.Connections += o.Connections
	s.ClientIPs.Union(o.ClientIPs)
	if o.MinValidity < s.MinValidity {
		s.MinValidity = o.MinValidity
	}
	if o.MaxValidity > s.MaxValidity {
		s.MaxValidity = o.MaxValidity
	}
}

// Add accounts one DGA certificate observation.
func (s *ClusterStats) Add(m *certmodel.Meta, connections int, clientIPs []string) {
	s.Certificates++
	s.Connections += connections
	for _, ip := range clientIPs {
		s.ClientIPs[ip] = true
	}
	d := m.ValidityDays()
	if d < s.MinValidity {
		s.MinValidity = d
	}
	if d > s.MaxValidity {
		s.MaxValidity = d
	}
}
