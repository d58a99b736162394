// Package lint checks individual certificates and delivered chains against
// the deployment hygiene the paper's findings motivate — a log-level zlint
// analog (certificate linting is the standard Web-PKI measurement
// methodology, arXiv:2401.18053).
//
// The engine is a pluggable registry: every check is a self-describing
// Check value carrying a stable ID, a default severity, the paper citation
// that motivates it, its scope (certificate- or chain-level), and an
// optional applicability predicate. Profiles ("paper", "strict", "all")
// select which registered checks a Linter runs. Beyond single-chain
// linting, CorpusReport accumulates findings over every distinct chain of a
// whole observation corpus with a commutative Merge, so the sharded
// analysis pipeline can lint at corpus scale and reproduce the §4.3
// prevalence percentages as lint output.
package lint

import (
	"fmt"
	"sort"
	"time"

	"certchains/internal/certmodel"
	"certchains/internal/chain"
)

// Severity grades a finding.
type Severity int

const (
	// Info findings are observations, not problems.
	Info Severity = iota
	// Warn findings degrade interoperability or efficiency.
	Warn
	// Error findings are likely to break validation for some clients.
	Error
)

// String implements fmt.Stringer.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warn:
		return "warn"
	default:
		return "error"
	}
}

// Finding is one lint result.
type Finding struct {
	// Check is the stable identifier of the lint.
	Check string
	// Severity grades the finding.
	Severity Severity
	// CertIndex is the offending certificate's position in the chain, or
	// -1 for chain-level findings.
	CertIndex int
	// Message explains the finding.
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("[%s] %s: %s", f.Severity, f.Check, f.Message)
}

// Config parameterizes the linter.
type Config struct {
	// Now is the reference time for validity checks.
	Now time.Time
	// MaxLeafValidity flags leaves valid longer than this (default 825
	// days, the ecosystem's pre-2020 ceiling).
	MaxLeafValidity time.Duration
	// NearExpiry flags unexpired certificates within this much of NotAfter
	// (default 30 days).
	NearExpiry time.Duration
	// Profile selects the enabled check set: ProfilePaper, ProfileStrict,
	// or ProfileAll. Empty selects ProfileAll.
	Profile string
}

// Context carries everything a check implementation may consult.
type Context struct {
	// Cfg is the linter configuration (reference time, thresholds).
	Cfg Config
	// Classifier supplies class and structure context (trust DB,
	// cross-signing registry).
	Classifier *chain.Classifier
	// Chain is the delivered chain under lint; nil when linting one
	// certificate in isolation.
	Chain certmodel.Chain
	// Analysis is the structural analysis of Chain; nil for isolated
	// certificates.
	Analysis *chain.Analysis
}

// LeafPosition reports whether pos is the delivered leaf position of the
// chain under lint. Isolated certificates (pos -1) are never leaf-position.
func (ctx *Context) LeafPosition(pos int) bool {
	if ctx.Chain == nil || pos < 0 {
		return false
	}
	return chain.IsLeafPosition(ctx.Chain, pos)
}

// Linter runs the enabled checks of a registry; the classifier supplies
// class and structure context.
type Linter struct {
	cfg     Config
	cl      *chain.Classifier
	reg     *Registry
	enabled []*Check
}

// New builds a linter over the default registry. A zero Now defaults to the
// wall clock.
func New(cl *chain.Classifier, cfg Config) *Linter {
	return NewWithRegistry(cl, DefaultRegistry(), cfg)
}

// NewWithRegistry builds a linter that runs the registry's checks enabled by
// cfg.Profile.
func NewWithRegistry(cl *chain.Classifier, reg *Registry, cfg Config) *Linter {
	if cfg.Now.IsZero() {
		cfg.Now = time.Now()
	}
	if cfg.MaxLeafValidity == 0 {
		cfg.MaxLeafValidity = 825 * 24 * time.Hour
	}
	if cfg.NearExpiry == 0 {
		cfg.NearExpiry = 30 * 24 * time.Hour
	}
	if cfg.Profile == "" {
		cfg.Profile = ProfileAll
	}
	return &Linter{cfg: cfg, cl: cl, reg: reg, enabled: reg.ProfileChecks(cfg.Profile)}
}

// Registry returns the registry backing this linter.
func (l *Linter) Registry() *Registry { return l.reg }

// EnabledChecks returns the checks the configured profile enables, sorted by
// ID.
func (l *Linter) EnabledChecks() []*Check {
	return append([]*Check(nil), l.enabled...)
}

// Config returns the effective (defaulted) configuration.
func (l *Linter) Config() Config { return l.cfg }

// Cert lints one certificate in isolation (position -1). Only
// certificate-scope checks run; chain structure is not consulted.
func (l *Linter) Cert(m *certmodel.Meta) []Finding {
	ctx := &Context{Cfg: l.cfg, Classifier: l.cl}
	var co Collector
	for _, c := range l.enabled {
		if c.Scope != ScopeCert {
			continue
		}
		if c.Applies != nil && !c.Applies(ctx, -1) {
			continue
		}
		co.check = c
		c.CertFn(ctx, &co, m, -1)
	}
	sortFindings(co.out)
	return co.out
}

// Chain lints a delivered chain: per-certificate checks at every position
// plus the structural chain-level checks.
func (l *Linter) Chain(ch certmodel.Chain) []Finding {
	return l.ChainAnalyzed(ch, l.cl.Analyze(ch))
}

// ChainAnalyzed is Chain with a precomputed structural analysis — the corpus
// pass caches analyses per distinct chain and must not redo them.
func (l *Linter) ChainAnalyzed(ch certmodel.Chain, a *chain.Analysis) []Finding {
	var co Collector
	l.run(ch, a, &co)
	sortFindings(co.out)
	return co.out
}

// run applies every enabled check to a delivered chain, reporting into co:
// ChainAnalyzed collects the findings, the corpus pass only counts them.
func (l *Linter) run(ch certmodel.Chain, a *chain.Analysis, co *Collector) {
	ctx := &Context{Cfg: l.cfg, Classifier: l.cl, Chain: ch, Analysis: a}
	for _, c := range l.enabled {
		co.check = c
		switch c.Scope {
		case ScopeCert:
			for i, m := range ch {
				if c.Applies != nil && !c.Applies(ctx, i) {
					continue
				}
				c.CertFn(ctx, co, m, i)
			}
		case ScopeChain:
			if c.Applies != nil && !c.Applies(ctx, -1) {
				continue
			}
			c.ChainFn(ctx, co)
		}
	}
}

// sortFindings orders findings deterministically — by certificate position
// (chain-level findings first), then check ID, then message — so output is
// stable regardless of check registration order.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].CertIndex != fs[j].CertIndex {
			return fs[i].CertIndex < fs[j].CertIndex
		}
		if fs[i].Check != fs[j].Check {
			return fs[i].Check < fs[j].Check
		}
		return fs[i].Message < fs[j].Message
	})
}

// Summary tallies findings by severity.
func Summary(findings []Finding) (info, warn, errs int) {
	for _, f := range findings {
		switch f.Severity {
		case Info:
			info++
		case Warn:
			warn++
		default:
			errs++
		}
	}
	return
}
