package lint

import (
	"fmt"
	"sort"

	"certchains/internal/certmodel"
)

// Scope states what a check examines.
type Scope int

const (
	// ScopeCert checks run once per certificate position (and for isolated
	// certificates).
	ScopeCert Scope = iota
	// ScopeChain checks run once per delivered chain with full structural
	// context.
	ScopeChain
)

// String implements fmt.Stringer.
func (s Scope) String() string {
	if s == ScopeChain {
		return "chain"
	}
	return "cert"
}

// Profile names. Profiles nest: paper ⊂ strict ⊂ all.
const (
	// ProfilePaper enables the checks that directly reproduce a finding the
	// paper reports.
	ProfilePaper = "paper"
	// ProfileStrict adds the full hygiene set (weak keys, deprecated
	// algorithms, ordering, pathLen, ...).
	ProfileStrict = "strict"
	// ProfileAll enables every registered check, including custom ones
	// registered without profile tags.
	ProfileAll = "all"
)

// Check is one self-describing lint.
type Check struct {
	// ID is the stable, kebab-case identifier findings carry.
	ID string
	// Severity is the default severity of the check's findings; individual
	// findings may override it via Collector.AddSeverity.
	Severity Severity
	// Scope states whether the check examines one certificate or the whole
	// delivered chain.
	Scope Scope
	// Description is a one-line statement of what the check flags.
	Description string
	// Citation anchors the check to the paper section (or related work)
	// that motivates it.
	Citation string
	// Profiles lists the profiles that enable this check; ProfileAll is
	// implicit for every registered check.
	Profiles []string
	// Applies optionally gates the check: consulted per certificate
	// position for ScopeCert, once with position -1 for ScopeChain. A nil
	// predicate always applies.
	Applies func(ctx *Context, pos int) bool
	// CertFn implements a ScopeCert check.
	CertFn func(ctx *Context, co *Collector, m *certmodel.Meta, pos int)
	// ChainFn implements a ScopeChain check.
	ChainFn func(ctx *Context, co *Collector)
}

// InProfile reports whether the check is enabled under the named profile.
func (c *Check) InProfile(profile string) bool {
	if profile == ProfileAll {
		return true
	}
	for _, p := range c.Profiles {
		if p == profile {
			return true
		}
	}
	return false
}

// Collector gathers the findings of the check being run, stamping its ID
// and default severity.
type Collector struct {
	check *Check
	out   []Finding
	// counts, when set, is the corpus pass's sink: a finding only increments
	// its check's count, and no message is formatted.
	counts map[string]int
}

// Add records a finding at the check's default severity. pos is the
// certificate position, or -1 for chain-level findings.
func (co *Collector) Add(pos int, format string, args ...any) {
	co.AddSeverity(co.check.Severity, pos, format, args...)
}

// AddSeverity records a finding with an explicit severity.
func (co *Collector) AddSeverity(sev Severity, pos int, format string, args ...any) {
	if co.counts != nil {
		co.counts[co.check.ID]++
		return
	}
	co.out = append(co.out, Finding{
		Check:     co.check.ID,
		Severity:  sev,
		CertIndex: pos,
		Message:   fmt.Sprintf(format, args...),
	})
}

// Registry holds the known checks, keyed by stable ID.
type Registry struct {
	byID map[string]*Check
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: make(map[string]*Check)}
}

// Register validates and adds a check. Every check must carry a stable ID,
// a description, a paper citation, and exactly the implementation its scope
// requires; duplicate IDs are rejected.
func (r *Registry) Register(c *Check) error {
	switch {
	case c.ID == "":
		return fmt.Errorf("lint: check without ID")
	case c.Description == "":
		return fmt.Errorf("lint: check %q without description", c.ID)
	case c.Citation == "":
		return fmt.Errorf("lint: check %q without paper citation", c.ID)
	case c.Scope == ScopeCert && (c.CertFn == nil || c.ChainFn != nil):
		return fmt.Errorf("lint: cert-scope check %q must set CertFn only", c.ID)
	case c.Scope == ScopeChain && (c.ChainFn == nil || c.CertFn != nil):
		return fmt.Errorf("lint: chain-scope check %q must set ChainFn only", c.ID)
	}
	if _, dup := r.byID[c.ID]; dup {
		return fmt.Errorf("lint: duplicate check ID %q", c.ID)
	}
	r.byID[c.ID] = c
	return nil
}

// MustRegister is Register, panicking on invalid checks (builtin wiring).
func (r *Registry) MustRegister(c *Check) {
	if err := r.Register(c); err != nil {
		panic(err)
	}
}

// Lookup returns the check with the given ID.
func (r *Registry) Lookup(id string) (*Check, bool) {
	c, ok := r.byID[id]
	return c, ok
}

// Len returns the number of registered checks.
func (r *Registry) Len() int { return len(r.byID) }

// Checks returns every registered check, sorted by ID.
func (r *Registry) Checks() []*Check {
	out := make([]*Check, 0, len(r.byID))
	for _, c := range r.byID {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ProfileChecks returns the checks the named profile enables, sorted by ID.
func (r *Registry) ProfileChecks(profile string) []*Check {
	var out []*Check
	for _, c := range r.Checks() {
		if c.InProfile(profile) {
			out = append(out, c)
		}
	}
	return out
}

// Profiles returns the profile names any registered check mentions, plus
// ProfileAll, sorted.
func (r *Registry) Profiles() []string {
	set := map[string]bool{ProfileAll: true}
	for _, c := range r.byID {
		for _, p := range c.Profiles {
			set[p] = true
		}
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
