//certchain:hotpath — the window aggregator folds every joined connection the daemon ingests.

package ingest

import (
	"fmt"
	"sort"
	"time"

	"certchains/internal/analysis"
	"certchains/internal/campus"
	"certchains/internal/certmodel"
	"certchains/internal/zeek"
)

// aggWindow holds one log-time interval's open aggregates — the batch
// loader's (chain, server endpoint) reduction, through the same
// analysis.ConnAggregate — in first-seen order.
type aggWindow struct {
	aggs  map[string]*analysis.ConnAggregate
	order []*analysis.ConnAggregate
}

// aggregator buckets joined connections into per-interval observation
// aggregates, closing a window once the join watermark passes its end.
type aggregator struct {
	interval time.Duration // config; Restore threads it from the ring snapshot's authoritative IntervalNS
	windows  map[int64]*aggWindow
	order    []int64 // ascending open-window indexes
	keyBuf   []byte  // scratch

	// maxFolded guards against out-of-order stragglers: a connection landing
	// in an already-folded window re-opens it (counted) and the straggler
	// observation folds separately rather than corrupting history.
	maxFolded  int64
	foldedAny  bool
	lateConns  int64
	totalConns int64
}

func newAggregator(interval time.Duration) *aggregator {
	return &aggregator{interval: interval, windows: make(map[int64]*aggWindow)}
}

func (g *aggregator) window(idx int64) *aggWindow {
	if w, ok := g.windows[idx]; ok {
		return w
	}
	w := &aggWindow{aggs: make(map[string]*analysis.ConnAggregate)}
	g.windows[idx] = w
	pos := sort.Search(len(g.order), func(i int) bool { return g.order[i] >= idx })
	g.order = append(g.order, 0)
	copy(g.order[pos+1:], g.order[pos:])
	g.order[pos] = idx
	return w
}

// add folds one joined connection into its window's aggregate. c is pooled
// by the joiner; the aggregate keeps only what may outlive the call.
func (g *aggregator) add(c *zeek.Connection) {
	g.totalConns++
	idx := analysis.WindowIndex(c.SSL.TS, g.interval)
	if g.foldedAny && idx <= g.maxFolded {
		g.lateConns++
	}
	w := g.window(idx)
	g.keyBuf = analysis.AppendConnKey(g.keyBuf[:0], c.Chain, c.SSL.RespH, c.SSL.RespP)
	a := w.aggs[string(g.keyBuf)]
	if a == nil {
		a = analysis.NewConnAggregate(c)
		w.put(string(g.keyBuf), a)
	}
	a.Fold(c)
}

func (w *aggWindow) put(key string, a *analysis.ConnAggregate) {
	w.aggs[key] = a
	w.order = append(w.order, a)
}

// closeReady removes and returns the observations of every window whose end
// the watermark has passed (all open windows when force), ascending by
// window then first-seen. n is the number of windows closed.
func (g *aggregator) closeReady(wm time.Time, wmSet, force bool) (obs []*campus.Observation, n int) {
	open := g.order[:0]
	for _, idx := range g.order {
		end := (idx + 1) * int64(g.interval)
		if !force && (!wmSet || wm.UnixNano() < end) {
			open = append(open, idx)
			continue
		}
		w := g.windows[idx]
		delete(g.windows, idx)
		for _, a := range w.order {
			obs = append(obs, a.Finalize())
		}
		if !g.foldedAny || idx > g.maxFolded {
			g.maxFolded, g.foldedAny = idx, true
		}
		n++
	}
	g.order = open
	return obs, n
}

// provisional returns copies of every still-open aggregate's observation,
// ascending by window then first-seen, without closing anything.
func (g *aggregator) provisional() []*campus.Observation {
	var obs []*campus.Observation
	for _, idx := range g.order {
		for _, a := range g.windows[idx].order {
			o := *a.Finalize()
			obs = append(obs, &o)
		}
	}
	return obs
}

// openCount is the number of open aggregates across all windows.
func (g *aggregator) openCount() int {
	n := 0
	for _, w := range g.windows {
		n += len(w.aggs)
	}
	return n
}

// --- aggregator snapshot ------------------------------------------------

type aggSnapshot struct {
	Windows   []aggWindowSnap          `json:"windows,omitempty"`
	Certs     []certmodel.MetaSnapshot `json:"certs,omitempty"`
	MaxFolded int64                    `json:"max_folded,omitempty"`
	FoldedAny bool                     `json:"folded_any,omitempty"`
	LateConns int64                    `json:"late_conns,omitempty"`
	Total     int64                    `json:"total_conns,omitempty"`
}

type aggWindowSnap struct {
	Idx  int64     `json:"idx"`
	Aggs []aggSnap `json:"aggs"`
}

// aggSnap serializes one open aggregate; the chain is referenced by
// fingerprint key against the snapshot's certificate table.
type aggSnap struct {
	ChainKey    string                 `json:"chain,omitempty"`
	ServerIP    string                 `json:"server_ip"`
	Port        int                    `json:"port"`
	Domain      string                 `json:"domain,omitempty"`
	First       certmodel.TimeSnapshot `json:"first"`
	Last        certmodel.TimeSnapshot `json:"last"`
	Conns       int64                  `json:"conns"`
	Established int64                  `json:"established,omitempty"`
	NoSNI       int64                  `json:"no_sni,omitempty"`
	TLS13       bool                   `json:"tls13,omitempty"`
	ClientIPs   []string               `json:"client_ips,omitempty"`
}

func (g *aggregator) snapshot() *aggSnapshot {
	s := &aggSnapshot{
		MaxFolded: g.maxFolded,
		FoldedAny: g.foldedAny,
		LateConns: g.lateConns,
		Total:     g.totalConns,
	}
	certs := certmodel.CertTable{}
	for _, idx := range g.order {
		ws := aggWindowSnap{Idx: idx}
		for _, a := range g.windows[idx].order {
			o := a.Finalize()
			ws.Aggs = append(ws.Aggs, aggSnap{
				ChainKey:    certs.Key(o.Chain),
				ServerIP:    o.ServerIP,
				Port:        o.Port,
				Domain:      o.Domain,
				First:       certmodel.SnapTime(o.First),
				Last:        certmodel.SnapTime(o.Last),
				Conns:       o.Conns,
				Established: o.Established,
				NoSNI:       o.NoSNI,
				TLS13:       o.TLS13,
				ClientIPs:   o.ClientIPs,
			})
		}
		s.Windows = append(s.Windows, ws)
	}
	s.Certs = certs.Snapshot()
	return s
}

func restoreAggregator(interval time.Duration, s *aggSnapshot) (*aggregator, error) {
	g := newAggregator(interval)
	if s == nil {
		return g, nil
	}
	g.maxFolded, g.foldedAny = s.MaxFolded, s.FoldedAny
	g.lateConns, g.totalConns = s.LateConns, s.Total
	certs, err := certmodel.RestoreCertTable(s.Certs)
	if err != nil {
		return nil, fmt.Errorf("ingest: restore aggregator: %w", err) //certchain:coldpath corrupt-snapshot error path
	}
	for _, ws := range s.Windows {
		w := g.window(ws.Idx)
		for _, as := range ws.Aggs {
			ch, err := certs.Chain(as.ChainKey)
			if err != nil {
				return nil, fmt.Errorf("ingest: restore aggregator: %w", err) //certchain:coldpath corrupt-snapshot error path
			}
			g.keyBuf = analysis.AppendConnKey(g.keyBuf[:0], ch, as.ServerIP, as.Port)
			w.put(string(g.keyBuf), analysis.RestoreConnAggregate(&campus.Observation{
				Chain:       ch,
				ServerIP:    as.ServerIP,
				Port:        as.Port,
				Domain:      as.Domain,
				First:       as.First.Time(),
				Last:        as.Last.Time(),
				Conns:       as.Conns,
				Established: as.Established,
				NoSNI:       as.NoSNI,
				TLS13:       as.TLS13,
				ClientIPs:   as.ClientIPs,
			}))
		}
	}
	return g, nil
}
