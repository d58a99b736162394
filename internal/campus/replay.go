package campus

import (
	"fmt"
	"io"
	"sort"
	"time"

	"certchains/internal/zeek"
)

// Replay expands observations into Zeek ssl.log / x509.log record streams in
// global timestamp order — the order a live Zeek worker writes them — so the
// output can drive the streaming ingest daemon like a real capture. The
// records themselves are exactly the ones the batch exporter
// (analysis.Write) produces for the same options: the connection expansion
// formulas are shared, only the file order differs (batch groups rows by
// observation; a live log interleaves them by time).
//
// Certificates sort ahead of connections at equal timestamps, matching
// Zeek's behavior of logging a handshake's x509 entries as the handshake
// completes; every fuid is therefore on disk before the first ssl row that
// references it.
//
// Replay itself never consults the wall clock: pacing is delegated to the
// Pace callback so library determinism is preserved and callers choose
// real-time, accelerated, or unpaced emission.
type ReplayOptions struct {
	// MaxConnsPerObservation caps the ssl.log rows emitted per observation;
	// 0 means no cap. Ratios are preserved under sampling exactly as in the
	// batch exporter.
	MaxConnsPerObservation int64
	// JSON selects ND-JSON output instead of TSV.
	JSON bool
	// BatchRecords flushes the writers every N records (default 64), so a
	// tailing reader sees progress instead of one buffered burst.
	BatchRecords int
	// Pace, when set, is called with each record's log timestamp before the
	// record is written. A live monitor sleeps here to convert simulated
	// time into wall time; returning an error aborts the replay.
	Pace func(ts time.Time) error
}

// replayRecord is one log row tagged for the global sort.
type replayRecord struct {
	ts  time.Time
	ord int // generation order: stable tiebreak
	x   *zeek.X509Record
	s   *zeek.SSLRecord
}

// ExpandConns emits the ssl.log rows one observation stands for, in
// connection order: at most maxConns of them (0 means all o.Conns), their
// timestamps spread evenly over [o.First, o.Last], client addresses rotating
// through o.ClientIPs. The establishment and SNI ratios survive sampling
// because the flags are spread evenly across the emitted rows. fuids are the
// chain's x509.log ids and *uid numbers connections across observations.
// Both log writers (Replay, analysis.Write) expand through this function, so
// their rows can differ only in file order.
func ExpandConns(o *Observation, fuids []string, maxConns int64, uid *int, emit func(*zeek.SSLRecord) error) error {
	conns := o.Conns
	if maxConns > 0 && conns > maxConns {
		conns = maxConns
	}
	span := int64(o.Last.Sub(o.First))
	version := "TLSv12"
	if o.TLS13 {
		version = "TLSv13"
	}
	for i := int64(0); i < conns; i++ {
		*uid++
		ts := o.First
		if n := conns - 1; n > 0 && span > 0 {
			// floor(i*span/n) without forming i*span, which overflows int64
			// past ≈292 rows over a 12-month span.
			ts = o.First.Add(time.Duration(i*(span/n) + i*(span%n)/n))
		}
		established := i*o.Conns/conns < o.Established
		noSNI := o.Conns > 0 && i*o.Conns/conns >= o.Conns-o.NoSNI
		sni := o.Domain
		if noSNI {
			sni = ""
		}
		clientIP := "10.0.0.1"
		if len(o.ClientIPs) > 0 {
			clientIP = o.ClientIPs[int(i)%len(o.ClientIPs)]
		}
		err := emit(&zeek.SSLRecord{
			TS:             ts,
			UID:            fmt.Sprintf("C%08x", *uid),
			OrigH:          clientIP,
			OrigP:          32768 + int(i%28000),
			RespH:          o.ServerIP,
			RespP:          o.Port,
			Version:        version,
			Cipher:         "TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256",
			ServerName:     sni,
			Established:    established,
			CertChainFUIDs: fuids,
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Replay writes the observation set as time-ordered live logs. See
// ReplayOptions for the contract.
func Replay(observations []*Observation, ssl, x509 io.Writer, opts ReplayOptions) error {
	if opts.BatchRecords <= 0 {
		opts.BatchRecords = 64
	}
	var recs []*replayRecord
	uid := 0
	ord := 0
	add := func(r *replayRecord) {
		r.ord = ord
		ord++
		recs = append(recs, r)
	}

	// A certificate is logged the first time any handshake delivers it, so
	// its record must carry the earliest First among ALL observations whose
	// chain contains it — observation slice order is not time order.
	certFirst := make(map[string]time.Time)
	for _, o := range observations {
		for _, m := range o.Chain {
			if t, ok := certFirst[string(m.FP)]; !ok || o.First.Before(t) {
				certFirst[string(m.FP)] = o.First
			}
		}
	}

	seenCert := make(map[string]bool)
	for _, o := range observations {
		fuids := make([]string, len(o.Chain))
		for i, m := range o.Chain {
			fuids[i] = string(m.FP)
			if !seenCert[fuids[i]] {
				seenCert[fuids[i]] = true
				first := certFirst[fuids[i]]
				add(&replayRecord{ts: first, x: zeek.FromMeta(m, first)})
			}
		}
		err := ExpandConns(o, fuids, opts.MaxConnsPerObservation, &uid, func(r *zeek.SSLRecord) error {
			add(&replayRecord{ts: r.TS, s: r})
			return nil
		})
		if err != nil {
			return err
		}
	}

	sort.SliceStable(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if !a.ts.Equal(b.ts) {
			return a.ts.Before(b.ts)
		}
		// Certificates land before connections at the same instant.
		if (a.x != nil) != (b.x != nil) {
			return a.x != nil
		}
		return a.ord < b.ord
	})

	var open, closeAt time.Time
	if len(recs) > 0 {
		open, closeAt = recs[0].ts, recs[len(recs)-1].ts
	}
	sink := zeek.NewLogWriter(opts.JSON, ssl, x509, open)
	for i, r := range recs {
		if opts.Pace != nil {
			if err := opts.Pace(r.ts); err != nil {
				return err
			}
		}
		var err error
		if r.x != nil {
			err = sink.WriteX509(r.x)
		} else {
			err = sink.WriteSSL(r.s)
		}
		if err != nil {
			return fmt.Errorf("campus: replay record: %w", err)
		}
		if (i+1)%opts.BatchRecords == 0 {
			if err := sink.Flush(); err != nil {
				return err
			}
		}
	}
	return sink.Close(closeAt)
}
