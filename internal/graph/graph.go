// Package graph builds the certificate co-occurrence graphs of Figures 5, 7
// and 8: nodes are certificates (annotated with issuer class and chain
// role), and an edge connects two certificates that ever appear together in
// at least one delivered chain.
//
// The analyses the paper draws from these graphs are implemented directly:
// degree distributions, connected components, and the "complex PKI
// structure" query — intermediates linked to at least three distinct other
// intermediates across chains (Appendix I).
package graph

import (
	"sort"

	"certchains/internal/certmodel"
	"certchains/internal/trustdb"
)

// Role is a certificate's structural role across the chains it appears in.
type Role int

const (
	// RoleLeaf certificates never issue within observed chains.
	RoleLeaf Role = iota
	// RoleIntermediate certificates issue and are issued.
	RoleIntermediate
	// RoleRoot certificates are self-signed.
	RoleRoot
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case RoleLeaf:
		return "leaf"
	case RoleIntermediate:
		return "intermediate"
	default:
		return "root"
	}
}

// Node is one certificate in the co-occurrence graph.
type Node struct {
	FP    certmodel.Fingerprint `json:"fp"`
	Meta  *certmodel.Meta       `json:"-"`
	Class trustdb.Class         `json:"class"`
	Role  Role                  `json:"role"`
	// Degree is the number of distinct neighbours.
	Degree int `json:"-"`
}

// Graph is the certificate co-occurrence graph.
type Graph struct {
	nodes map[certmodel.Fingerprint]*Node
	adj   map[certmodel.Fingerprint]map[certmodel.Fingerprint]bool
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		nodes: make(map[certmodel.Fingerprint]*Node),
		adj:   make(map[certmodel.Fingerprint]map[certmodel.Fingerprint]bool),
	}
}

// AddChain inserts one delivered chain: every member becomes a node and
// every adjacent pair an edge (the "observed together" relation).
func (g *Graph) AddChain(ch certmodel.Chain, classes []trustdb.Class) {
	for i, m := range ch {
		n := g.ensure(m)
		if classes != nil && i < len(classes) {
			n.Class = classes[i]
		}
		g.refreshRole(n, ch)
	}
	for i := 0; i+1 < len(ch); i++ {
		g.addEdge(ch[i].FP, ch[i+1].FP)
	}
}

func (g *Graph) ensure(m *certmodel.Meta) *Node {
	if n, ok := g.nodes[m.FP]; ok {
		return n
	}
	n := &Node{FP: m.FP, Meta: m, Role: RoleLeaf}
	if m.SelfSigned() {
		n.Role = RoleRoot
	}
	g.nodes[m.FP] = n
	g.adj[m.FP] = make(map[certmodel.Fingerprint]bool)
	return n
}

// refreshRole upgrades a node's role when later chains reveal it issuing.
func (g *Graph) refreshRole(n *Node, ch certmodel.Chain) {
	if n.Role == RoleRoot {
		return
	}
	for _, other := range ch {
		if other.FP == n.FP {
			continue
		}
		if len(other.Issuer) == len(n.Meta.Subject) && other.IssuerKey() == n.Meta.SubjectKey() {
			n.Role = RoleIntermediate
			return
		}
	}
}

func (g *Graph) addEdge(a, b certmodel.Fingerprint) {
	if a == b {
		return
	}
	if !g.adj[a][b] {
		g.adj[a][b] = true
		g.nodes[a].Degree++
	}
	if !g.adj[b][a] {
		g.adj[b][a] = true
		g.nodes[b].Degree++
	}
}

// Merge folds another graph into this one: nodes are unioned, roles are
// upgraded (a node any shard saw issuing is an intermediate), and edges are
// re-added so degrees stay consistent. Because role upgrades and edge
// insertion are monotonic and idempotent, merging shard-local graphs in any
// order reproduces the graph a single sequential pass over all chains builds.
func (g *Graph) Merge(o *Graph) {
	if o == nil {
		return
	}
	for fp, on := range o.nodes {
		n, ok := g.nodes[fp]
		if !ok {
			cp := *on
			cp.Degree = 0
			g.nodes[fp] = &cp
			g.adj[fp] = make(map[certmodel.Fingerprint]bool)
			continue
		}
		// RoleRoot is decided from the certificate itself at insertion, so it
		// agrees across shards; the only cross-shard upgrade is leaf →
		// intermediate when the other shard observed the node issuing.
		if n.Role == RoleLeaf && on.Role == RoleIntermediate {
			n.Role = RoleIntermediate
		}
	}
	for a, nbs := range o.adj {
		for b := range nbs {
			g.addEdge(a, b)
		}
	}
}

// NodeCount returns the number of nodes.
func (g *Graph) NodeCount() int { return len(g.nodes) }

// EdgeCount returns the number of undirected edges.
func (g *Graph) EdgeCount() int {
	total := 0
	for _, nb := range g.adj {
		total += len(nb)
	}
	return total / 2
}

// Nodes returns all nodes sorted by fingerprint for determinism.
func (g *Graph) Nodes() []*Node {
	out := make([]*Node, 0, len(g.nodes))
	for _, n := range g.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FP < out[j].FP })
	return out
}

// Node returns the node for a fingerprint.
func (g *Graph) Node(fp certmodel.Fingerprint) (*Node, bool) {
	n, ok := g.nodes[fp]
	return n, ok
}

// Neighbors returns a node's neighbours sorted by fingerprint.
func (g *Graph) Neighbors(fp certmodel.Fingerprint) []*Node {
	var out []*Node
	for nb := range g.adj[fp] {
		out = append(out, g.nodes[nb])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FP < out[j].FP })
	return out
}

// ComplexIntermediates returns intermediates linked to at least `min`
// distinct other intermediates across all chains — the Appendix I "complex
// PKI structure" criterion (min = 3 in the paper).
func (g *Graph) ComplexIntermediates(min int) []*Node {
	var out []*Node
	for fp, n := range g.nodes {
		if n.Role != RoleIntermediate {
			continue
		}
		linked := 0
		for nb := range g.adj[fp] {
			if g.nodes[nb].Role == RoleIntermediate {
				linked++
			}
		}
		if linked >= min {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FP < out[j].FP })
	return out
}

// Components returns connected components as slices of fingerprints, largest
// first (deterministic order within and across components).
func (g *Graph) Components() [][]certmodel.Fingerprint {
	visited := make(map[certmodel.Fingerprint]bool, len(g.nodes))
	var comps [][]certmodel.Fingerprint

	fps := make([]certmodel.Fingerprint, 0, len(g.nodes))
	for fp := range g.nodes {
		fps = append(fps, fp)
	}
	sort.Slice(fps, func(i, j int) bool { return fps[i] < fps[j] })

	for _, start := range fps {
		if visited[start] {
			continue
		}
		var comp []certmodel.Fingerprint
		stack := []certmodel.Fingerprint{start}
		visited[start] = true
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, cur)
			for nb := range g.adj[cur] {
				if !visited[nb] {
					visited[nb] = true
					stack = append(stack, nb)
				}
			}
		}
		sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
		comps = append(comps, comp)
	}
	sort.SliceStable(comps, func(i, j int) bool { return len(comps[i]) > len(comps[j]) })
	return comps
}

// DegreeDistribution returns degree -> node count.
func (g *Graph) DegreeDistribution() map[int]int {
	out := make(map[int]int)
	for _, n := range g.nodes {
		out[n.Degree]++
	}
	return out
}

// ClassCounts returns node counts by issuer class (Figure 5's blue/red).
func (g *Graph) ClassCounts() (public, nonPublic int) {
	for _, n := range g.nodes {
		if n.Class == trustdb.IssuedByPublicDB {
			public++
		} else {
			nonPublic++
		}
	}
	return
}

// RoleCounts returns node counts by role (Figure 5's node sizes).
func (g *Graph) RoleCounts() (leaf, intermediate, root int) {
	for _, n := range g.nodes {
		switch n.Role {
		case RoleLeaf:
			leaf++
		case RoleIntermediate:
			intermediate++
		default:
			root++
		}
	}
	return
}

// WithoutLeaves returns a copy of the graph with leaf nodes removed —
// Figure 8 omits leaf certificates.
func (g *Graph) WithoutLeaves() *Graph {
	out := New()
	for fp, n := range g.nodes {
		if n.Role == RoleLeaf {
			continue
		}
		cp := *n
		cp.Degree = 0
		out.nodes[fp] = &cp
		out.adj[fp] = make(map[certmodel.Fingerprint]bool)
	}
	for a, nbs := range g.adj {
		if _, ok := out.nodes[a]; !ok {
			continue
		}
		for b := range nbs {
			if _, ok := out.nodes[b]; ok {
				out.addEdge(a, b)
			}
		}
	}
	return out
}
