// Package certchains is a library for analyzing TLS certificate chains
// beyond the public Web PKI, reproducing "Inside Certificate Chains Beyond
// Public Issuers: Structure and Usage Analysis from a Campus Network"
// (IMC 2025).
//
// The library has four layers:
//
//   - a certificate and chain model at the granularity of Zeek's x509.log
//     (distinguished names, validity, tri-state basicConstraints), with
//     parsers for Zeek's ssl.log/x509.log on-disk format;
//   - classification substrates: synthetic root stores and CCADB
//     (NewTrustDB), an RFC 6962-style Certificate Transparency log with a
//     crt.sh-like query API (NewCTLog), and a synthetic Web PKI minting real
//     ECDSA certificates (NewMint);
//   - the chain structure analyzer (NewClassifier / Classifier.Analyze):
//     issuer–subject matching, complete matched path detection, mismatch
//     ratios, cross-signing exemptions, unnecessary-certificate flagging,
//     and the paper's chain taxonomies;
//   - the measurement harness: a deterministic campus traffic generator
//     (GenerateScenario), the full analysis pipeline regenerating every
//     table and figure (Analyze), a localhost TLS server farm and scanner
//     for retrospective studies, and dual-method chain validation.
//
// Quick start:
//
//	cfg := certchains.DefaultScenarioConfig()
//	cfg.Scale = 0.005
//	scenario, err := certchains.GenerateScenario(cfg)
//	if err != nil { ... }
//	report := certchains.Analyze(scenario)
//	fmt.Print(report.Render())
package certchains

import (
	"crypto/x509"
	"io"

	"certchains/internal/analysis"
	"certchains/internal/campus"
	"certchains/internal/certmodel"
	"certchains/internal/chain"
	"certchains/internal/ctlog"
	"certchains/internal/dga"
	"certchains/internal/dn"
	"certchains/internal/graph"
	"certchains/internal/intercept"
	"certchains/internal/lint"
	"certchains/internal/middlebox"
	"certchains/internal/pki"
	"certchains/internal/scanner"
	"certchains/internal/serverfarm"
	"certchains/internal/trustdb"
	"certchains/internal/validate"
)

// --- certificate and chain model -------------------------------------------

// Certificate is the log-level view of one X.509 certificate: the fields
// Zeek exports in x509.log plus a stable fingerprint.
type Certificate = certmodel.Meta

// Chain is a delivered certificate sequence, leaf first.
type Chain = certmodel.Chain

// Fingerprint uniquely identifies a certificate across a dataset.
type Fingerprint = certmodel.Fingerprint

// BasicConstraints is the tri-state basicConstraints value (absent, CA=FALSE,
// CA=TRUE); the paper shows "absent" dominates non-public issuers.
type BasicConstraints = certmodel.BasicConstraints

// BasicConstraints values.
const (
	BCAbsent = certmodel.BCAbsent
	BCFalse  = certmodel.BCFalse
	BCTrue   = certmodel.BCTrue
)

// DN is a parsed X.500 distinguished name.
type DN = dn.DN

// ParseDN parses an RFC 4514 distinguished-name string as printed by Zeek
// and OpenSSL ("CN=example.com,O=Example,C=US").
func ParseDN(s string) (DN, error) { return dn.Parse(s) }

// MustParseDN is ParseDN that panics on error.
func MustParseDN(s string) DN { return dn.MustParse(s) }

// CertificateFromX509 projects a parsed X.509 certificate into the
// log-level model (fingerprint = SHA-256 of the DER, as Zeek computes it).
func CertificateFromX509(c *x509.Certificate) *Certificate {
	return certmodel.FromX509(c)
}

// --- classification substrates ----------------------------------------------

// TrustDB models the public certificate databases (root stores and CCADB)
// that separate public-DB from non-public-DB issuers.
type TrustDB = trustdb.DB

// NewTrustDB returns an empty trust database.
func NewTrustDB() *TrustDB { return trustdb.New() }

// Root store names.
const (
	StoreMozilla   = trustdb.StoreMozilla
	StoreApple     = trustdb.StoreApple
	StoreMicrosoft = trustdb.StoreMicrosoft
	StoreCCADB     = trustdb.StoreCCADB
)

// CTLog is an RFC 6962-style Certificate Transparency log with a
// crt.sh-like domain query interface.
type CTLog = ctlog.Log

// NewCTLog creates a CT log with a deterministic Ed25519 key for the seed.
func NewCTLog(name string, seed int64) (*CTLog, error) { return ctlog.New(name, seed) }

// --- the chain structure analyzer -------------------------------------------

// Classifier performs certificate classification (§3.2.1), chain
// categorization (§3.2.2) and structural analysis (§4).
type Classifier = chain.Classifier

// NewClassifier builds a classifier over a trust database.
func NewClassifier(db *TrustDB) *Classifier { return chain.NewClassifier(db) }

// ChainAnalysis is the structural result for one delivered chain.
type ChainAnalysis = chain.Analysis

// Category is the §3.2.2 chain category.
type Category = chain.Category

// Chain categories.
const (
	PublicDBOnly    = chain.PublicDBOnly
	NonPublicDBOnly = chain.NonPublicDBOnly
	Hybrid          = chain.Hybrid
	Interception    = chain.Interception
)

// Verdict summarizes a chain's path structure.
type Verdict = chain.Verdict

// Structure verdicts.
const (
	VerdictSingleCert   = chain.VerdictSingleCert
	VerdictCompletePath = chain.VerdictCompletePath
	VerdictContainsPath = chain.VerdictContainsPath
	VerdictNoPath       = chain.VerdictNoPath
)

// IsDGACertificate reports whether a certificate matches the §4.3 DGA
// cluster pattern.
func IsDGACertificate(c *Certificate) bool { return dga.IsDGACertificate(c) }

// --- interception detection ---------------------------------------------------

// InterceptionDetector performs the CT cross-reference of §3.2.1.
type InterceptionDetector = intercept.Detector

// NewInterceptionDetector builds a detector over a trust DB and CT log.
func NewInterceptionDetector(db *TrustDB, ct *CTLog) *InterceptionDetector {
	return intercept.NewDetector(db, ct)
}

// --- the campus scenario and pipeline ----------------------------------------

// ScenarioConfig controls synthetic campus dataset generation.
type ScenarioConfig = campus.Config

// Scenario is a complete generated dataset: trust stores, CT log,
// classifier, observations, and the §5 revisit plan.
type Scenario = campus.Scenario

// Observation is the aggregate view of one delivered chain at one server.
type Observation = campus.Observation

// DefaultScenarioConfig mirrors the paper's collection at 1% volume.
func DefaultScenarioConfig() ScenarioConfig { return campus.DefaultConfig() }

// GenerateScenario builds a deterministic campus dataset.
func GenerateScenario(cfg ScenarioConfig) (*Scenario, error) { return campus.Generate(cfg) }

// Report bundles every reproduced table and figure; Render produces the
// text report.
type Report = analysis.Report

// Pipeline is the enrichment and analysis pipeline (Figure 2).
type Pipeline = analysis.Pipeline

// NewPipeline wires a pipeline from its components.
func NewPipeline(db *TrustDB, ct *CTLog, cl *Classifier, reg *intercept.Registry) *Pipeline {
	return analysis.NewPipeline(db, ct, cl, reg)
}

// Analyze runs the full pipeline over a scenario's observations.
func Analyze(s *Scenario) *Report {
	return analysis.FromScenario(s).Run(s.Observations)
}

// RevisitReport is the §5 then-vs-now comparison.
type RevisitReport = analysis.RevisitReport

// AnalyzeRevisit runs the §5 comparison for a scenario.
func AnalyzeRevisit(s *Scenario) *RevisitReport {
	return analysis.AnalyzeRevisit(s.Classifier, s.Revisit, "Lets Encrypt")
}

// WriteZeekLogs expands observations into Zeek ssl.log / x509.log streams
// in timestamp order, as Zeek writes them.
func WriteZeekLogs(observations []*Observation, ssl, x509 io.Writer, maxConnsPerObservation int64) error {
	return campus.Replay(observations, ssl, x509,
		campus.ReplayOptions{MaxConnsPerObservation: maxConnsPerObservation})
}

// LoadZeekLogs re-aggregates Zeek log streams into observations.
func LoadZeekLogs(ssl, x509 io.Reader) ([]*Observation, error) {
	return analysis.Load(ssl, x509)
}

// PipelineFromScenario wires a pipeline from a generated scenario's
// components.
var PipelineFromScenario = analysis.FromScenario

// ZeekFormat selects the on-disk Zeek log format.
type ZeekFormat = analysis.Format

// Zeek log formats.
const (
	ZeekFormatTSV  = analysis.FormatTSV
	ZeekFormatJSON = analysis.FormatJSON
)

// StreamZeekLogs re-aggregates Zeek log streams, invoking emit once per
// observation without materializing the whole corpus.
var StreamZeekLogs = analysis.LoadFormatFunc

// --- real-certificate tier ----------------------------------------------------

// Mint creates real X.509 certificates (ECDSA / Ed25519) deterministically.
type Mint = pki.Mint

// RealCertificate bundles DER, parsed form, log-level projection and key.
type RealCertificate = pki.Certificate

// CA is a certificate authority able to issue further certificates.
type CA = pki.CA

// NewMint returns a certificate mint for the seed and clock.
var NewMint = pki.NewMint

// PkixName builds a pkix.Name from a common name and optional
// organization and country.
var PkixName = pki.Name

// Certificate mint options.
var (
	// WithSANs sets dNSName subject alternative names.
	WithSANs = pki.WithSANs
	// WithValidityDays sets the validity window length.
	WithValidityDays = pki.WithValidityDays
	// WithExpired backdates the certificate.
	WithExpired = pki.WithExpired
	// WithOmitBasicConstraints drops the basicConstraints extension.
	WithOmitBasicConstraints = pki.WithOmitBasicConstraints
)

// ServerFarm runs real TLS servers on loopback presenting arbitrary chains.
type ServerFarm = serverfarm.Farm

// NewServerFarm returns an empty farm.
func NewServerFarm() *ServerFarm { return serverfarm.New() }

// Scanner is the §5 retrospective TLS scanner.
type Scanner = scanner.Scanner

// NewScanner returns a scanner with a per-connection timeout.
var NewScanner = scanner.New

// ValidationPolicy selects a client validation behaviour (§5's
// Chrome-vs-OpenSSL divergence).
type ValidationPolicy = validate.Policy

// Validation policies.
const (
	PolicyBrowser         = validate.PolicyBrowser
	PolicyStrictPresented = validate.PolicyStrictPresented
)

// ValidationClient validates presented chains under a policy.
type ValidationClient = validate.Client

// NewValidationClient builds a client trusting the given roots.
var NewValidationClient = validate.NewClient

// CertGraph is the certificate co-occurrence graph (Figures 5, 7, 8).
type CertGraph = graph.Graph

// NewCertGraph returns an empty graph.
func NewCertGraph() *CertGraph { return graph.New() }

// DOTOptions controls Graphviz rendering of certificate graphs.
type DOTOptions = graph.DOTOptions

// --- deployment hygiene tooling (§6.2) ----------------------------------------

// Repair proposes the corrected delivery for a misconfigured chain.
type Repair = chain.Repair

// ProposeRepair computes the repair for an analyzed chain.
var ProposeRepair = chain.ProposeRepair

// RepairWithClock additionally flags expired leaves at the given time.
var RepairWithClock = chain.RepairWithClock

// Linter checks certificates and chains against deployment hygiene.
type Linter = lint.Linter

// LintConfig parameterizes the linter.
type LintConfig = lint.Config

// LintFinding is one lint result.
type LintFinding = lint.Finding

// NewLinter builds a linter over a classifier.
var NewLinter = lint.New

// LintSummary tallies findings by severity.
var LintSummary = lint.Summary

// LintCheck is one self-describing lint check: stable ID, severity, scope,
// paper citation, and applicability predicate.
type LintCheck = lint.Check

// LintRegistry holds lint checks keyed by stable ID.
type LintRegistry = lint.Registry

// NewLintRegistry returns an empty lint registry for custom check sets.
func NewLintRegistry() *LintRegistry { return lint.NewRegistry() }

// DefaultLintRegistry returns a fresh registry with every builtin check.
var DefaultLintRegistry = lint.DefaultRegistry

// NewLinterWithRegistry builds a linter over a custom registry.
var NewLinterWithRegistry = lint.NewWithRegistry

// Lint profiles: paper reproduces the paper's findings; strict adds the
// full hygiene set; all enables every registered check.
const (
	LintProfilePaper  = lint.ProfilePaper
	LintProfileStrict = lint.ProfileStrict
	LintProfileAll    = lint.ProfileAll
)

// LintCorpusReport accumulates lint findings over a whole observation
// corpus with a commutative Merge (shardable like the pipeline).
type LintCorpusReport = lint.CorpusReport

// NewLintCorpusReport creates an empty corpus accumulator for a linter.
var NewLintCorpusReport = lint.NewCorpusReport

// LintCorpusSummary is the finalized corpus lint prevalence table.
type LintCorpusSummary = lint.CorpusSummary

// WriteLintJSON emits findings as a stable JSON document.
var WriteLintJSON = lint.WriteJSON

// WriteLintSARIF emits findings as a SARIF 2.1.0 log with the enabled
// checks as the rule set.
var WriteLintSARIF = lint.WriteSARIF

// BuildStorePath completes a trust path for a leaf from the public
// databases, the way store-completing clients (Chrome) do (§6.1).
var BuildStorePath = chain.BuildStorePath

// StoreCompletable reports whether a failing presented chain would still
// validate for a store-completing client.
var StoreCompletable = chain.StoreCompletable

// InterceptionProxy is a working TLS interception middlebox: it terminates
// client TLS with per-SNI certificates forged by its inspection CA and
// relays plaintext to the origin (Appendix B's device class).
type InterceptionProxy = middlebox.Proxy

// NewInterceptionProxy starts a middlebox in front of upstreamAddr.
var NewInterceptionProxy = middlebox.New
