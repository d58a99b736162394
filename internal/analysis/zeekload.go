package analysis

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"certchains/internal/campus"
	"certchains/internal/certmodel"
	"certchains/internal/zeek"
)

// Format selects the Zeek on-disk log format.
type Format int

const (
	// FormatTSV is Zeek's default tab-separated ASCII format.
	FormatTSV Format = iota
	// FormatJSON is Zeek's ND-JSON format (LogAscii::use_json=T).
	FormatJSON
)

// ParseFormat maps a -format flag value, "tsv" or "json", to its Format.
func ParseFormat(s string) (Format, error) {
	switch s {
	case "tsv":
		return FormatTSV, nil
	case "json":
		return FormatJSON, nil
	}
	return 0, fmt.Errorf("unknown format %q (tsv or json)", s)
}

// Load re-aggregates Zeek ssl.log / x509.log streams (TSV format) into the
// observation model the pipeline consumes: one observation per (delivered
// chain, server endpoint), with connection, establishment, SNI and
// client-IP aggregates — the same reduction the paper performs over its
// twelve months of logs.
func Load(ssl, x509 io.Reader) ([]*campus.Observation, error) {
	return LoadFormat(FormatTSV, ssl, x509)
}

// maybeGunzip wraps a reader with a gzip decoder when the stream starts
// with the gzip magic — Zeek deployments rotate logs compressed.
func maybeGunzip(r io.Reader) (io.Reader, error) {
	br := bufio.NewReader(r)
	magic, err := br.Peek(2)
	if err != nil {
		// Short or empty stream: hand it through; downstream readers
		// produce their own EOF handling.
		return br, nil
	}
	if magic[0] == 0x1f && magic[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("analysis: gzip: %w", err)
		}
		return gz, nil
	}
	return br, nil
}

// LoadFormat is Load with an explicit log format. Gzip-compressed streams
// are detected and decompressed transparently.
func LoadFormat(format Format, ssl, x509 io.Reader) ([]*campus.Observation, error) {
	var out []*campus.Observation
	err := LoadFormatFunc(format, ssl, x509, func(o *campus.Observation) error {
		out = append(out, o)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// LoadFormatFunc is LoadFormat with a callback: it hands each aggregated
// observation to emit, in first-seen (chain, server endpoint) order. An
// observation's counters close only at end of stream, so nothing is emitted
// until the join has read both logs to the end. The callback spares the
// result slice only; the aggregation state is held to the end either way.
func LoadFormatFunc(format Format, ssl, x509 io.Reader, emit func(*campus.Observation) error) error {
	var err error
	if ssl, err = maybeGunzip(ssl); err != nil {
		return err
	}
	if x509, err = maybeGunzip(x509); err != nil {
		return err
	}
	return FoldConnGroups(func(fn func(*zeek.ConnGroup) error) error {
		return zeek.FastJoinGroups(format == FormatJSON, ssl, x509, fn)
	}, emit)
}

// FoldConnGroups is LoadFormatFunc's reduction over the connection groups a
// zeek.FastJoinGroups pass hands to join's fn: one aggregate per identity,
// opened by the identity's first group, emitted in first-seen order once
// join returns. A group whose chain names an unknown certificate is dropped,
// as real log pipelines tolerate x509 rotation gaps; the next group of its
// identity tries again. The aggregates retain only what a pooled group may
// hand out: the canonical Chain, interned strings and times.
func FoldConnGroups(join func(fn func(*zeek.ConnGroup) error) error, emit func(*campus.Observation) error) error {
	byKey := make(map[string]*ConnAggregate)
	var order []*ConnAggregate
	err := join(func(g *zeek.ConnGroup) error {
		a := byKey[string(g.Key())]
		if a == nil {
			ch, err := g.Chain()
			if err != nil {
				return nil
			}
			ip, port := g.Server()
			a = openConnAggregate(ch, ip, port, g.First)
			byKey[string(g.Key())] = a
			order = append(order, a)
		}
		a.foldGroup(g)
		return nil
	})
	if err != nil {
		return err
	}
	for _, a := range order {
		if err := emit(a.Finalize()); err != nil {
			return err
		}
	}
	return nil
}

// AppendConnKey appends the observation identity connections aggregate
// under — (delivered chain, server address, server port) — to dst. Each
// fingerprint and the address are length-prefixed, so no two identities
// share a key whatever bytes they hold. Aggregators probe their maps with
// m[string(buf)] and materialize a key only for a new observation.
func AppendConnKey(dst []byte, ch certmodel.Chain, serverIP string, port int) []byte {
	for _, m := range ch {
		dst = appendLenPrefixed(dst, string(m.FP))
	}
	dst = append(dst, '|')
	dst = appendLenPrefixed(dst, serverIP)
	return strconv.AppendInt(dst, int64(port), 10)
}

// appendLenPrefixed appends s to dst as its decimal length, ':' and s.
func appendLenPrefixed(dst []byte, s string) []byte {
	dst = strconv.AppendInt(dst, int64(len(s)), 10)
	dst = append(dst, ':')
	return append(dst, s...)
}

// ConnAggregate folds the joined connections of one observation identity
// into a campus.Observation: the reduction both the batch loader (over a
// whole capture) and the ingest daemon (per window) perform.
type ConnAggregate struct {
	o   *campus.Observation
	ips map[string]bool
}

// NewConnAggregate opens an aggregate at c's identity; c itself still has to
// be folded. Only values safe to retain past a pooled Connection are kept.
func NewConnAggregate(c *zeek.Connection) *ConnAggregate {
	return openConnAggregate(c.Chain, c.SSL.RespH, c.SSL.RespP, c.SSL.TS)
}

// openConnAggregate opens an aggregate at an identity, its time bounds at
// ts.
func openConnAggregate(ch certmodel.Chain, serverIP string, port int, ts time.Time) *ConnAggregate {
	return &ConnAggregate{
		o:   &campus.Observation{Chain: ch, ServerIP: serverIP, Port: port, First: ts, Last: ts},
		ips: make(map[string]bool),
	}
}

// RestoreConnAggregate reopens an aggregate from a finalized observation.
func RestoreConnAggregate(o *campus.Observation) *ConnAggregate {
	ips := make(map[string]bool, len(o.ClientIPs))
	for _, ip := range o.ClientIPs {
		ips[ip] = true
	}
	return &ConnAggregate{o: o, ips: ips}
}

// Fold accumulates one connection.
func (a *ConnAggregate) Fold(c *zeek.Connection) {
	a.o.Conns++
	if c.SSL.Established {
		a.o.Established++
	}
	if c.SSL.ServerName == "" {
		a.o.NoSNI++
	} else if a.o.Domain == "" {
		a.o.Domain = c.SSL.ServerName
	}
	if len(c.Chain) == 0 {
		a.o.TLS13 = true
	}
	a.ips[c.SSL.OrigH] = true
	if c.SSL.TS.Before(a.o.First) {
		a.o.First = c.SSL.TS
	}
	if c.SSL.TS.After(a.o.Last) {
		a.o.Last = c.SSL.TS
	}
}

// foldGroup accumulates a block's connections of the aggregate's identity:
// Fold over each of g's rows in file order.
func (a *ConnAggregate) foldGroup(g *zeek.ConnGroup) {
	a.o.Conns += g.Conns
	a.o.Established += g.Established
	a.o.NoSNI += g.NoSNI
	if a.o.Domain == "" {
		a.o.Domain = g.SNI()
	}
	if len(a.o.Chain) == 0 {
		a.o.TLS13 = true
	}
	g.AddClients(a.ips)
	if g.First.Before(a.o.First) {
		a.o.First = g.First
	}
	if g.Last.After(a.o.Last) {
		a.o.Last = g.Last
	}
}

// Finalize returns the aggregate's observation with its client addresses
// sorted into a fresh slice. The aggregate stays open: a later Finalize
// reflects what was folded since.
func (a *ConnAggregate) Finalize() *campus.Observation {
	ips := make([]string, 0, len(a.ips))
	for ip := range a.ips {
		ips = append(ips, ip)
	}
	sort.Strings(ips)
	a.o.ClientIPs = ips
	return a.o
}
