package analysis

import (
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"

	"certchains/internal/certmodel"
	"certchains/internal/chain"
	"certchains/internal/graph"
)

// This file serializes accumulator state for the dist wire partials
// (EncodeState), the ring buckets (WindowRing.Snapshot) and the ingest
// daemon's snapshots. The partial's fields are its wire format: encoding is
// json.Marshal of the live partialReport, whose tagged fields and nested
// types (stats.Set, stats.CDF, stats.Histogram, graph.Graph,
// dga.ClusterStats, lint.CorpusReport) encode themselves canonically —
// sorted sets, keys and slices — so equal accumulators encode
// byte-identically. Decoding is json.Unmarshal into a fresh partial plus one
// resolve pass against the certificate table. A decoded accumulator merges
// and finalizes byte-identically to the original (the window equivalence
// suite enforces this across seeds and worker widths).
//
// Chains encode through certmodel.CertTable: a partial references each
// cached chain, and each graph node, by fingerprint against the enclosing
// snapshot's certificate table, and every structure analysis is recomputed
// on resolve (Classifier.Analyze is deterministic), so the serialized form
// stays proportional to distinct chains rather than to retained pointers.

// analysisCache caches structure analyses per chain key. Its wire form is
// the sorted key list; decoding leaves every analysis nil until the resolve
// pass in decodePartial.
type analysisCache map[string]*chain.Analysis

// MarshalJSON encodes the sorted chain keys.
func (c analysisCache) MarshalJSON() ([]byte, error) {
	keys := make([]string, 0, len(c))
	for key := range c {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	return json.Marshal(keys)
}

// UnmarshalJSON decodes a chain key list into a cache awaiting the resolve
// pass.
func (c *analysisCache) UnmarshalJSON(data []byte) error {
	var keys []string
	if err := json.Unmarshal(data, &keys); err != nil {
		return err
	}
	*c = make(analysisCache, len(keys))
	for _, key := range keys {
		(*c)[key] = nil
	}
	return nil
}

// MarshalJSON encodes the pairs in sequence order, sorting a copy: encoding
// runs beside readers of the live slice.
func (x outliers) MarshalJSON() ([]byte, error) {
	pairs := slices.Clone([][2]int(x))
	sort.Slice(pairs, func(i, j int) bool { return pairs[i][0] < pairs[j][0] })
	return json.Marshal(pairs)
}

// encodedPartial carries one partial through a sealed state. Encoding
// marshals the embedded live accumulator in place; decoding keeps the raw
// bytes for decodePartial, which needs the pipeline.
type encodedPartial struct {
	*partialReport
	raw []byte
}

// UnmarshalJSON keeps the raw bytes for decodePartial.
func (e *encodedPartial) UnmarshalJSON(data []byte) error {
	e.raw = append([]byte(nil), data...)
	return nil
}

// encode registers the certificates of every cached chain — which include
// every graph node — in certs, the table the encoded partial references, and
// wraps the live partial for marshaling. Callers marshal it at once, under
// whatever lock keeps writers out.
func (pr *partialReport) encode(certs certmodel.CertTable) encodedPartial {
	for _, a := range pr.Analyses {
		for _, m := range a.Chain {
			certs[m.FP] = m
		}
	}
	return encodedPartial{partialReport: pr}
}

// decodePartial decodes one encoded partial into a fresh accumulator (an
// absent one is empty), then completes it in one resolve pass against certs.
// The pass rejects what no encoder writes, since merge and finalize trust the
// accumulator's shape: a null over a structure newPartial allocates, a
// client-IP set without its Table 2 row, an unknown port group. It then
// attaches certificate metadata to the three graphs, re-analyses the cached
// chains, and drops the lint accumulator when the pipeline has no linter.
func (p *Pipeline) decodePartial(e encodedPartial, certs certmodel.CertTable) (*partialReport, error) {
	pr, fresh := p.newPartial(), p.newPartial()
	if len(e.raw) > 0 {
		if err := json.Unmarshal(e.raw, pr); err != nil {
			return nil, err
		}
	}
	if name := nulled(fresh, pr); name != "" {
		return nil, fmt.Errorf("analysis: null %s", name)
	}
	if fresh.Lint == nil {
		pr.Lint = nil
	} else if name := nulled(fresh.Lint, pr.Lint); name != "" {
		return nil, fmt.Errorf("analysis: null lint %s", name)
	}
	for cat := range pr.IPSets {
		if _, ok := pr.Table2[cat]; !ok {
			return nil, fmt.Errorf("analysis: ip_sets category %v has no table2 row", cat)
		}
	}
	for cat, cdf := range pr.Figure1 {
		if cdf == nil {
			return nil, fmt.Errorf("analysis: null figure1 cdf %v", cat)
		}
	}
	for group, hist := range pr.PortHist {
		if hist == nil || fresh.PortHist[group] == nil {
			return nil, fmt.Errorf("analysis: bad port_hist group %q", group)
		}
	}
	for _, g := range []*graph.Graph{pr.HybridGraph, pr.NonPubGraph, pr.InterceptGraph} {
		if err := g.Resolve(certs); err != nil {
			return nil, err
		}
	}
	for key := range pr.Analyses {
		if key == "" {
			return nil, fmt.Errorf("analysis: empty chain key in snapshot")
		}
		ch, err := certs.Chain(key)
		if err != nil {
			return nil, err
		}
		pr.Analyses[key] = p.Classifier.AnalyzeKeyed(key, ch)
	}
	return pr, nil
}

// nulled returns the JSON name of the first exported map or pointer field
// that is set in fresh but nil in got (of the same struct type): a JSON null
// decoded over a structure the accumulator writes through.
func nulled(fresh, got any) string {
	fv, gv := reflect.ValueOf(fresh).Elem(), reflect.ValueOf(got).Elem()
	for i := range fv.NumField() {
		f := fv.Type().Field(i)
		switch k := fv.Field(i).Kind(); {
		case !f.IsExported() || (k != reflect.Map && k != reflect.Pointer):
		case !fv.Field(i).IsNil() && gv.Field(i).IsNil():
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			return name
		}
	}
	return ""
}
