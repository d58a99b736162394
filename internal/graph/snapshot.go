package graph

import (
	"encoding/json"
	"fmt"

	"certchains/internal/certmodel"
)

// graphJSON is the wire form of a co-occurrence graph: node annotations plus
// the undirected edge list, both in deterministic order. Certificate
// metadata is not embedded — nodes reference certificates by fingerprint and
// Resolve re-attaches them from the enclosing state's certificate table, so
// a graph nested inside a larger accumulator never duplicates certificates.
type graphJSON struct {
	Nodes []*Node                    `json:"nodes,omitempty"`
	Edges [][2]certmodel.Fingerprint `json:"edges,omitempty"`
}

// MarshalJSON encodes the nodes in fingerprint order and each edge once,
// lower fingerprint first, in sorted order.
func (g *Graph) MarshalJSON() ([]byte, error) {
	s := graphJSON{Nodes: g.Nodes()}
	for _, n := range s.Nodes {
		for _, nb := range g.Neighbors(n.FP) {
			if n.FP < nb.FP {
				s.Edges = append(s.Edges, [2]certmodel.Fingerprint{n.FP, nb.FP})
			}
		}
	}
	return json.Marshal(s)
}

// UnmarshalJSON replaces the graph with a decoded one. Roles are restored
// as recorded and degrees recomputed from the edge list; node metadata stays
// nil until Resolve.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var s graphJSON
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	*g = *New()
	for _, n := range s.Nodes {
		if n == nil {
			return fmt.Errorf("graph: null node")
		}
		g.nodes[n.FP] = n
		g.adj[n.FP] = make(map[certmodel.Fingerprint]bool)
	}
	for _, e := range s.Edges {
		for _, fp := range e {
			if _, ok := g.nodes[fp]; !ok {
				return fmt.Errorf("graph: edge references unknown node %s", fp)
			}
		}
		g.addEdge(e[0], e[1])
	}
	return nil
}

// Resolve attaches each node's certificate metadata from certs, which a
// decoded graph lacks.
func (g *Graph) Resolve(certs certmodel.CertTable) error {
	for fp, n := range g.nodes {
		if n.Meta = certs[fp]; n.Meta == nil {
			return fmt.Errorf("graph: node references unknown certificate %s", fp)
		}
	}
	return nil
}
