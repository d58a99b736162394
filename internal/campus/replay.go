package campus

import (
	"fmt"
	"io"
	"sort"
	"time"

	"certchains/internal/certmodel"
	"certchains/internal/zeek"
)

// Replay expands observations into Zeek ssl.log / x509.log record streams in
// global timestamp order — the order a live Zeek worker writes them — so the
// output can drive the streaming ingest daemon like a real capture. It is
// the one log writer: generated logs, dist partitions and replayed captures
// all come from it.
//
// Rows are ordered by timestamp; at one instant certificates come before
// connections, matching Zeek's behavior of logging a handshake's x509
// entries as the handshake completes, so every fuid is on disk before the
// first ssl row that references it. Remaining ties keep generation order:
// certificates in the order they are first delivered, connections by
// observation and then by row. A certificate is stamped with the earliest
// First of the observations that deliver it.
//
// Replay holds O(observations + certificates) in memory, never the rows: it
// merges one cursor per observation (whose rows are already in time order)
// with the time-sorted certificates.
//
// Replay itself never consults the wall clock: pacing is delegated to the
// Pace callback so library determinism is preserved and callers choose
// real-time, accelerated, or unpaced emission.
type ReplayOptions struct {
	// MaxConnsPerObservation caps the ssl.log rows emitted per observation;
	// 0 means no cap. Establishment and SNI ratios survive the sampling.
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

// connRows is one observation's ssl.log expansion: how many rows it writes
// and what every row shares. Replay's cursors step through it row by row.
type connRows struct {
	o       *Observation
	fuids   []string
	n       int64 // rows written: o.Conns under the cap
	span    int64 // Last - First in ns
	version string
}

func newConnRows(o *Observation, fuids []string, maxConns int64) connRows {
	n := o.Conns
	if maxConns > 0 && n > maxConns {
		n = maxConns
	}
	version := "TLSv12"
	if o.TLS13 {
		version = "TLSv13"
	}
	return connRows{o: o, fuids: fuids, n: n, span: int64(o.Last.Sub(o.First)), version: version}
}

// ts is row i's timestamp: First + floor(i*span/(n-1)), non-decreasing in i,
// from First to Last. A single row, or a span that is not positive, stays
// at First.
func (e *connRows) ts(i int64) time.Time {
	if n := e.n - 1; n > 0 && e.span > 0 {
		// floor(i*span/n) without forming i*span, which overflows int64
		// past ≈292 rows over a 12-month span.
		return e.o.First.Add(time.Duration(i*(e.span/n) + i*(e.span%n)/n))
	}
	return e.o.First
}

// row fills r with row i, numbered uid. The establishment and SNI ratios
// survive sampling because the flags are spread evenly across the rows.
func (e *connRows) row(i int64, uid int, r *zeek.SSLRecord) {
	o := e.o
	sni := o.Domain
	if o.Conns > 0 && i*o.Conns/e.n >= o.Conns-o.NoSNI {
		sni = ""
	}
	clientIP := "10.0.0.1"
	if len(o.ClientIPs) > 0 {
		clientIP = o.ClientIPs[int(i)%len(o.ClientIPs)]
	}
	*r = zeek.SSLRecord{
		TS:             e.ts(i),
		UID:            connUID(uid),
		OrigH:          clientIP,
		OrigP:          32768 + int(i%28000),
		RespH:          o.ServerIP,
		RespP:          o.Port,
		Version:        e.version,
		Cipher:         "TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256",
		ServerName:     sni,
		Established:    i*o.Conns/e.n < o.Established,
		CertChainFUIDs: e.fuids,
	}
}

// connUID is fmt.Sprintf("C%08x", n) for n ≥ 0.
func connUID(n int) string {
	const digits = "0123456789abcdef"
	var b [17]byte
	i := len(b)
	for v := uint64(n); v > 0 || i > len(b)-8; v >>= 4 {
		i--
		b[i] = digits[v&0xf]
	}
	i--
	b[i] = 'C'
	return string(b[i:])
}

// certRow is one x509.log row of a replay: a certificate at the earliest
// First among the observations that deliver it.
type certRow struct {
	m  *certmodel.Meta
	ts time.Time
}

// connCursor is the next unwritten row of one observation. ord is the
// observation's position in the input, the tiebreak at equal timestamps.
type connCursor struct {
	rows connRows
	next int64
	uid0 int // uid of row 0, minus one
	ord  int
	ts   time.Time // rows.ts(next)
	// sec and nsec are ts as a total order key: comparing them is what
	// ts.Before and ts.Equal do, without the calls.
	sec  int64
	nsec int
}

// seek moves the cursor to row i.
func (c *connCursor) seek(i int64) {
	c.next = i
	c.ts = c.rows.ts(i)
	c.sec, c.nsec = c.ts.Unix(), c.ts.Nanosecond()
}

// before orders cursors by (ts, ord): the earliest unwritten row, and among
// rows at one instant the earliest generated.
func (c *connCursor) before(d *connCursor) bool {
	if c.sec != d.sec {
		return c.sec < d.sec
	}
	if c.nsec != d.nsec {
		return c.nsec < d.nsec
	}
	return c.ord < d.ord
}

// connHeap is a binary min-heap of cursors under before.
type connHeap []*connCursor

func (h connHeap) down(i int) {
	for {
		least := i
		if l := 2*i + 1; l < len(h) && h[l].before(h[least]) {
			least = l
		}
		if r := 2*i + 2; r < len(h) && h[r].before(h[least]) {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// Replay writes the observation set as time-ordered live logs. See
// ReplayOptions for the contract.
func Replay(observations []*Observation, ssl, x509 io.Writer, opts ReplayOptions) error {
	if opts.BatchRecords <= 0 {
		opts.BatchRecords = 64
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

	// One stream of certificates in first-delivery order, one cursor per
	// observation with rows; uids number rows in observation order.
	certs := make([]certRow, 0, len(certFirst))
	seenCert := make(map[string]bool, len(certFirst))
	cursors := make([]connCursor, 0, len(observations))
	uid := 0
	for _, o := range observations {
		fuids := make([]string, len(o.Chain))
		for i, m := range o.Chain {
			fuids[i] = string(m.FP)
			if !seenCert[fuids[i]] {
				seenCert[fuids[i]] = true
				certs = append(certs, certRow{m: m, ts: certFirst[fuids[i]]})
			}
		}
		rows := newConnRows(o, fuids, opts.MaxConnsPerObservation)
		if rows.n > 0 {
			cursors = append(cursors, connCursor{rows: rows, uid0: uid, ord: len(cursors)})
			cursors[len(cursors)-1].seek(0)
		}
		uid += int(rows.n)
	}
	sort.SliceStable(certs, func(i, j int) bool { return certs[i].ts.Before(certs[j].ts) })

	// #open is the earliest row and #close the latest: the first
	// certificate or some observation's row 0, the last certificate or some
	// observation's last row.
	var open, closeAt time.Time
	first := true
	stamp := func(lo, hi time.Time) {
		if first || lo.Before(open) {
			open = lo
		}
		if first || hi.After(closeAt) {
			closeAt = hi
		}
		first = false
	}
	if len(certs) > 0 {
		stamp(certs[0].ts, certs[len(certs)-1].ts)
	}
	h := make(connHeap, len(cursors))
	for i := range cursors {
		c := &cursors[i]
		stamp(c.ts, c.rows.ts(c.rows.n-1))
		h[i] = c
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}

	sink := zeek.NewLogWriter(opts.JSON, ssl, x509, open)
	var rec zeek.SSLRecord
	for written, ci := 0, 0; ci < len(certs) || len(h) > 0; written++ {
		// Certificates land before connections at the same instant.
		isCert := ci < len(certs) && (len(h) == 0 || !h[0].ts.Before(certs[ci].ts))
		var ts time.Time
		if isCert {
			ts = certs[ci].ts
		} else {
			ts = h[0].ts
		}
		if opts.Pace != nil {
			if err := opts.Pace(ts); err != nil {
				return err
			}
		}
		var err error
		if isCert {
			err = sink.WriteX509(zeek.FromMeta(certs[ci].m, ts))
			ci++
		} else {
			c := h[0]
			c.rows.row(c.next, c.uid0+int(c.next)+1, &rec)
			err = sink.WriteSSL(&rec)
			if c.next+1 < c.rows.n {
				c.seek(c.next + 1)
			} else {
				h[0] = h[len(h)-1]
				h = h[:len(h)-1]
			}
			h.down(0)
		}
		if err != nil {
			return fmt.Errorf("campus: replay record: %w", err)
		}
		if (written+1)%opts.BatchRecords == 0 {
			if err := sink.Flush(); err != nil {
				return err
			}
		}
	}
	return sink.Close(closeAt)
}
