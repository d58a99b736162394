// Package ctlog implements an RFC 6962-style Certificate Transparency log on
// top of internal/merkle, together with the crt.sh-like query interface the
// paper uses twice: to verify that non-public-DB leaves anchored to public
// roots are CT-logged (§4.2), and to detect TLS interception by checking
// whether CT records a different issuer for the same domain and validity
// window (§3.2.1).
//
// AddChain and the HTTP add-chain endpoint issue genuinely signed SCTs
// (Ed25519); Append inserts the same entry without signing, and is what the
// campus simulator uses, since the analysis reads entries, never SCTs. The
// log maintains signed tree heads and answers inclusion and consistency
// proofs, so monitors built on it exercise the full CT verification path.
package ctlog

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"certchains/internal/certmodel"
	"certchains/internal/dn"
	"certchains/internal/merkle"
	"certchains/internal/pki"
)

// Entry is one logged certificate.
type Entry struct {
	// Index is the leaf index in the Merkle tree.
	Index uint64
	// Timestamp is the log's SCT timestamp for the entry.
	Timestamp time.Time
	// Cert is the logged (pre)certificate, leaf of the submitted chain.
	Cert *certmodel.Meta
	// ChainFPs are the fingerprints of the submitted issuing chain
	// (excluding the leaf), outermost last.
	ChainFPs []certmodel.Fingerprint
}

// SCT is a signed certificate timestamp returned by AddChain.
type SCT struct {
	LogID     [32]byte
	Timestamp time.Time
	LeafIndex uint64
	Signature []byte
}

// STH is a signed tree head.
type STH struct {
	TreeSize  uint64
	Timestamp time.Time
	RootHash  merkle.Hash
	Signature []byte
}

// Log is an append-only CT log. Safe for concurrent use.
type Log struct {
	name string
	id   [32]byte
	priv ed25519.PrivateKey
	pub  ed25519.PublicKey

	mu       sync.RWMutex
	tree     *merkle.Tree
	entries  []*Entry
	byLeafFP map[certmodel.Fingerprint]*Entry
	byDomain map[string][]*Entry
	byIssuer map[string][]*Entry
}

// New creates a log with a deterministic key for the given seed.
func New(name string, seed int64) (*Log, error) {
	pub, priv, err := ed25519.GenerateKey(pki.NewDeterministicRand(seed))
	if err != nil {
		return nil, fmt.Errorf("ctlog: generate log key: %w", err)
	}
	l := &Log{
		name:     name,
		priv:     priv,
		pub:      pub,
		tree:     merkle.New(),
		byLeafFP: make(map[certmodel.Fingerprint]*Entry),
		byDomain: make(map[string][]*Entry),
		byIssuer: make(map[string][]*Entry),
	}
	l.id = sha256.Sum256(pub)
	return l, nil
}

// Name returns the log's configured name.
func (l *Log) Name() string { return l.name }

// ID returns the log ID (hash of the public key).
func (l *Log) ID() [32]byte { return l.id }

// PublicKey returns the log's verification key.
func (l *Log) PublicKey() ed25519.PublicKey { return l.pub }

// Size returns the current number of entries.
func (l *Log) Size() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.tree.Size()
}

// ErrAlreadyLogged is returned by Append and AddChain when the leaf is
// already present, together with the original entry or its SCT.
var ErrAlreadyLogged = errors.New("ctlog: certificate already logged")

// leafData serializes the entry fields bound by the SCT and Merkle leaf.
func leafData(cert *certmodel.Meta, ts time.Time) []byte {
	var b []byte
	var tsb [8]byte
	binary.BigEndian.PutUint64(tsb[:], uint64(ts.UnixMilli()))
	b = append(b, tsb[:]...)
	b = append(b, cert.FP...)
	b = append(b, 0)
	b = append(b, cert.IssuerKey()...)
	b = append(b, 0)
	b = append(b, cert.SubjectKey()...)
	return b
}

// Append logs the chain's leaf certificate without signing an SCT: it is the
// log's one insert path (tree, entries and the leaf, domain and issuer
// indexes). The chain must be non-empty; index 0 is the leaf, the remainder
// its issuing chain. A duplicate leaf returns the original entry together
// with ErrAlreadyLogged.
func (l *Log) Append(chain certmodel.Chain, at time.Time) (*Entry, error) {
	if len(chain) == 0 {
		return nil, errors.New("ctlog: empty chain")
	}
	leaf := chain[0]

	l.mu.Lock()
	defer l.mu.Unlock()
	if prev, ok := l.byLeafFP[leaf.FP]; ok {
		return prev, ErrAlreadyLogged
	}

	e := &Entry{
		Index:     l.tree.Size(),
		Timestamp: at,
		Cert:      leaf,
	}
	for _, m := range chain[1:] {
		e.ChainFPs = append(e.ChainFPs, m.FP)
	}
	l.tree.AppendHash(merkle.LeafHash(leafData(leaf, at)))
	l.entries = append(l.entries, e)
	l.byLeafFP[leaf.FP] = e
	for _, name := range coveredNames(leaf) {
		l.byDomain[name] = append(l.byDomain[name], e)
	}
	issKey := leaf.IssuerKey()
	l.byIssuer[issKey] = append(l.byIssuer[issKey], e)
	return e, nil
}

// AddChain is Append followed by signing the entry's SCT. Duplicate leaves
// return ErrAlreadyLogged together with the original entry's SCT. The
// signature is made after the write lock is released, so readers do not
// wait for it.
func (l *Log) AddChain(chain certmodel.Chain, at time.Time) (*SCT, error) {
	e, err := l.Append(chain, at)
	if e == nil {
		return nil, err
	}
	return l.signSCT(e), err
}

func coveredNames(m *certmodel.Meta) []string {
	seen := make(map[string]bool)
	var names []string
	add := func(n string) {
		n = strings.ToLower(strings.TrimSpace(n))
		if n != "" && !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	add(m.Subject.CommonName())
	for _, s := range m.SAN {
		add(s)
	}
	return names
}

// signSCT needs no lock: the log's id and key and an inserted entry's fields
// never change.
func (l *Log) signSCT(e *Entry) *SCT {
	msg := leafData(e.Cert, e.Timestamp)
	return &SCT{
		LogID:     l.id,
		Timestamp: e.Timestamp,
		LeafIndex: e.Index,
		Signature: ed25519.Sign(l.priv, msg),
	}
}

// VerifySCT checks an SCT against the certificate it covers using the log's
// public key.
func (l *Log) VerifySCT(sct *SCT, cert *certmodel.Meta) bool {
	if sct.LogID != l.id {
		return false
	}
	return ed25519.Verify(l.pub, leafData(cert, sct.Timestamp), sct.Signature)
}

// TreeHead returns a signed tree head for the current size.
func (l *Log) TreeHead(at time.Time) *STH {
	l.mu.RLock()
	defer l.mu.RUnlock()
	root := l.tree.Root()
	sth := &STH{TreeSize: l.tree.Size(), Timestamp: at, RootHash: root}
	sth.Signature = ed25519.Sign(l.priv, sthMessage(sth))
	return sth
}

func sthMessage(s *STH) []byte {
	var b [48]byte
	binary.BigEndian.PutUint64(b[:8], s.TreeSize)
	binary.BigEndian.PutUint64(b[8:16], uint64(s.Timestamp.UnixMilli()))
	copy(b[16:], s.RootHash[:])
	return b[:]
}

// VerifySTH validates a signed tree head signature.
func (l *Log) VerifySTH(s *STH) bool {
	return ed25519.Verify(l.pub, sthMessage(s), s.Signature)
}

// InclusionProof returns the audit path for entry index i at tree size n.
func (l *Log) InclusionProof(i, n uint64) ([]merkle.Hash, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.tree.InclusionProof(i, n)
}

// ConsistencyProof returns the proof between tree sizes m and n.
func (l *Log) ConsistencyProof(m, n uint64) ([]merkle.Hash, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.tree.ConsistencyProof(m, n)
}

// LeafHashOf recomputes the Merkle leaf hash for an entry so external
// verifiers can check inclusion.
func LeafHashOf(e *Entry) merkle.Hash {
	return merkle.LeafHash(leafData(e.Cert, e.Timestamp))
}

// GetEntries returns entries in [start, end) like the CT get-entries API.
func (l *Log) GetEntries(start, end uint64) []*Entry {
	l.mu.RLock()
	defer l.mu.RUnlock()
	n := uint64(len(l.entries))
	if start >= n {
		return nil
	}
	if end > n {
		end = n
	}
	return append([]*Entry(nil), l.entries[start:end]...)
}

// Contains reports whether the exact leaf certificate is logged — the §4.2
// compliance check for non-public-DB leaves anchored to public roots.
func (l *Log) Contains(fp certmodel.Fingerprint) bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	_, ok := l.byLeafFP[fp]
	return ok
}

// QueryDomain returns all entries whose certificate covers the domain,
// including wildcard coverage (*.example.com covers a.example.com) — the
// crt.sh-style query.
func (l *Log) QueryDomain(domain string) []*Entry {
	domain = strings.ToLower(strings.TrimSpace(domain))
	l.mu.RLock()
	defer l.mu.RUnlock()
	var out []*Entry
	seen := make(map[uint64]bool)
	add := func(es []*Entry) {
		for _, e := range es {
			if !seen[e.Index] {
				seen[e.Index] = true
				out = append(out, e)
			}
		}
	}
	add(l.byDomain[domain])
	if i := strings.IndexByte(domain, '.'); i > 0 {
		add(l.byDomain["*"+domain[i:]])
	}
	return out
}

// IssuersFor returns the distinct issuer DNs that CT records for
// certificates covering domain and valid at the instant t — the exact
// cross-reference §3.2.1 performs to flag interception: an observed issuer
// absent from this set (while the set is non-empty) is a mismatch.
func (l *Log) IssuersFor(domain string, t time.Time) []dn.DN {
	entries := l.QueryDomain(domain)
	var out []dn.DN
	seen := make(map[string]bool)
	for _, e := range entries {
		if !e.Cert.ValidAt(t) {
			continue
		}
		key := e.Cert.IssuerKey()
		if !seen[key] {
			seen[key] = true
			out = append(out, e.Cert.Issuer)
		}
	}
	return out
}

// EntriesByIssuer returns entries whose leaf was issued by the given DN.
func (l *Log) EntriesByIssuer(issuer dn.DN) []*Entry {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return append([]*Entry(nil), l.byIssuer[issuer.Normalized()]...)
}
