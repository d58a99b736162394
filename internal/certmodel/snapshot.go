package certmodel

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"certchains/internal/dn"
)

// TimeSnapshot is the serialized form of a timestamp: Unix seconds plus the
// in-second nanoseconds. Encoding the two integers (rather than a formatted
// string) keeps the codec independent of time zones and of the undefined
// behaviour of formatting the zero time.
type TimeSnapshot struct {
	Sec  int64 `json:"sec"`
	Nsec int64 `json:"nsec,omitempty"`
}

// SnapTime serializes a timestamp.
func SnapTime(t time.Time) TimeSnapshot {
	return TimeSnapshot{Sec: t.Unix(), Nsec: int64(t.Nanosecond())}
}

// Time rebuilds the timestamp (in UTC; the pipeline only ever derives
// durations and Unix values from certificate times, so the zone is
// immaterial).
func (ts TimeSnapshot) Time() time.Time {
	return time.Unix(ts.Sec, ts.Nsec).UTC()
}

// MetaSnapshot is the serialized form of one certificate's metadata. DNs are
// stored structurally (dn.DN marshals its attribute list directly), so the
// round trip never depends on String/Parse escaping.
type MetaSnapshot struct {
	FP           string       `json:"fp"`
	Issuer       dn.DN        `json:"issuer,omitempty"`
	Subject      dn.DN        `json:"subject,omitempty"`
	SerialHex    string       `json:"serial,omitempty"`
	NotBefore    TimeSnapshot `json:"not_before"`
	NotAfter     TimeSnapshot `json:"not_after"`
	KeyAlg       string       `json:"key_alg,omitempty"`
	KeyBits      int          `json:"key_bits,omitempty"`
	BC           int          `json:"bc"`
	SAN          []string     `json:"san,omitempty"`
	SigAlg       string       `json:"sig_alg,omitempty"`
	HasPathLen   bool         `json:"has_path_len,omitempty"`
	PathLen      int          `json:"path_len,omitempty"`
	EKU          []string     `json:"eku,omitempty"`
	OCSPServers  []string     `json:"ocsp,omitempty"`
	CAIssuerURLs []string     `json:"ca_issuers,omitempty"`
}

// Snapshot serializes the certificate metadata.
func (m *Meta) Snapshot() MetaSnapshot {
	return MetaSnapshot{
		FP:           string(m.FP),
		Issuer:       m.Issuer,
		Subject:      m.Subject,
		SerialHex:    m.SerialHex,
		NotBefore:    SnapTime(m.NotBefore),
		NotAfter:     SnapTime(m.NotAfter),
		KeyAlg:       string(m.KeyAlg),
		KeyBits:      m.KeyBits,
		BC:           int(m.BC),
		SAN:          m.SAN,
		SigAlg:       m.SigAlg,
		HasPathLen:   m.HasPathLen,
		PathLen:      m.PathLen,
		EKU:          m.EKU,
		OCSPServers:  m.OCSPServers,
		CAIssuerURLs: m.CAIssuerURLs,
	}
}

// Meta rebuilds the certificate metadata.
func (s MetaSnapshot) Meta() *Meta {
	return &Meta{
		FP:           Fingerprint(s.FP),
		Issuer:       s.Issuer,
		Subject:      s.Subject,
		SerialHex:    s.SerialHex,
		NotBefore:    s.NotBefore.Time(),
		NotAfter:     s.NotAfter.Time(),
		KeyAlg:       KeyAlgorithm(s.KeyAlg),
		KeyBits:      s.KeyBits,
		BC:           BasicConstraints(s.BC),
		SAN:          s.SAN,
		SigAlg:       s.SigAlg,
		HasPathLen:   s.HasPathLen,
		PathLen:      s.PathLen,
		EKU:          s.EKU,
		OCSPServers:  s.OCSPServers,
		CAIssuerURLs: s.CAIssuerURLs,
	}
}

// CertTable is the deduplicated certificate table of a state snapshot: the
// state references chains by fingerprint key, and the table carries each
// distinct certificate once, sorted by fingerprint, so equal states encode
// identically.
type CertTable map[Fingerprint]*Meta

// Key registers the chain's certificates and returns its key.
func (t CertTable) Key(ch Chain) string {
	for _, m := range ch {
		t[m.FP] = m
	}
	return ch.Key()
}

// Snapshot serializes the table in fingerprint order.
func (t CertTable) Snapshot() []MetaSnapshot {
	fps := make([]Fingerprint, 0, len(t))
	for fp := range t {
		fps = append(fps, fp)
	}
	slices.Sort(fps)
	out := make([]MetaSnapshot, len(fps))
	for i, fp := range fps {
		out[i] = t[fp].Snapshot()
	}
	return out
}

// RestoreCertTable rebuilds a table from its serialized form. The bytes may
// come off the wire, so an entry without a fingerprint is an error.
func RestoreCertTable(certs []MetaSnapshot) (CertTable, error) {
	t := make(CertTable, len(certs))
	for _, ms := range certs {
		if ms.FP == "" {
			return nil, fmt.Errorf("certmodel: certificate with empty fingerprint")
		}
		t[Fingerprint(ms.FP)] = ms.Meta()
	}
	return t, nil
}

// Chain resolves a chain key against the table; "" is the empty chain.
func (t CertTable) Chain(key string) (Chain, error) {
	if key == "" {
		return nil, nil
	}
	fps := strings.Split(key, "|")
	ch := make(Chain, len(fps))
	for i, fp := range fps {
		m := t[Fingerprint(fp)]
		if m == nil {
			return nil, fmt.Errorf("certmodel: snapshot references unknown certificate %s", fp)
		}
		ch[i] = m
	}
	return ch, nil
}
