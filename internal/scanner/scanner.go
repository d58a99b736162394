// Package scanner implements the retrospective TLS scan of §5: a real TLS
// client (the `openssl s_client -showcerts` analog) that connects to
// servers, records the exact certificate chain each presents, and feeds the
// result back through the structure analyzer for the then-vs-now
// comparison.
package scanner

import (
	"context"
	"crypto/tls"
	"fmt"
	"net"
	"time"

	"certchains/internal/certmodel"
	"certchains/internal/chain"
	"certchains/internal/obs"
	"certchains/internal/resilience"
)

// Outcome is the graceful-degradation verdict for one scanned endpoint: a
// sweep never aborts on an unreachable server, it records what happened and
// moves on (§5's retrospective scan hit plenty of dead hosts).
const (
	OutcomeOK        = "ok"               // handshake completed, chain captured
	OutcomeEmpty     = "empty-chain"      // handshake completed, no certificates
	OutcomeDial      = "dial-failed"      // could not connect after retries
	OutcomeHandshake = "handshake-failed" // connected but TLS never completed
)

// Result is one scanned endpoint.
type Result struct {
	// Addr is the endpoint scanned.
	Addr string
	// SNI is the server name sent in the handshake.
	SNI string
	// Chain is the presented chain in delivery order (leaf first), as the
	// log-level model the analyzer consumes.
	Chain certmodel.Chain
	// Raw holds the presented DER certificates.
	Raw [][]byte
	// Err is the connection or handshake error, nil on success.
	Err error
	// Outcome is the degradation verdict (one of the Outcome* constants).
	Outcome string
	// Attempts is how many connection attempts the retry budget spent.
	Attempts int
	// Duration is the wall time of the scan, including retries.
	Duration time.Duration
}

// Reachable reports whether the scan obtained a chain.
func (r *Result) Reachable() bool {
	return r.Err == nil && len(r.Chain) > 0
}

// Scanner dials endpoints and captures presented chains.
type Scanner struct {
	// Timeout bounds each connection attempt (each retry gets a fresh one).
	Timeout time.Duration
	// Dialer overrides the network dialer (tests inject failures or wrap it
	// with a resilience fault plan).
	Dialer func(ctx context.Context, network, addr string) (net.Conn, error)
	// Retry is the per-target retry budget. The zero value makes a single
	// attempt; New installs resilience.DefaultPolicy.
	Retry resilience.Policy
	// Metrics, when set, books scan attempts and retries into the shared
	// obs registry.
	Metrics *resilience.Metrics
	// Tracer, when set, records one "scan" span per ScanAll sweep. The span
	// is opened by the coordinator before any connection launches, so its
	// position in the trace is deterministic even though scan durations are
	// pure wall clock.
	Tracer *obs.Tracer
}

// New returns a scanner with the given per-connection timeout and the
// default retry budget.
func New(timeout time.Duration) *Scanner {
	return &Scanner{Timeout: timeout, Retry: resilience.DefaultPolicy()}
}

// Scan connects to addr, completes a TLS handshake offering sni, and
// records the presented chain. Certificate verification is disabled — the
// point is to observe what the server sends, not to judge it (judging is
// the analyzer's job). Transient failures (refused, reset, timed out) are
// retried within the scanner's Retry budget; the final error and attempt
// count are recorded on the result, never surfaced as an abort.
func (s *Scanner) Scan(ctx context.Context, addr, sni string) *Result {
	start := time.Now()
	res := &Result{Addr: addr, SNI: sni, Outcome: OutcomeDial}

	policy := s.Retry.WithMetrics(s.Metrics)
	attempts, err := policy.Do(ctx, "scan.target", func(ctx context.Context) error {
		return s.scanOnce(ctx, addr, sni, res)
	})
	res.Attempts = attempts
	res.Err = err
	if err == nil {
		res.Outcome = OutcomeOK
		if len(res.Chain) == 0 {
			res.Outcome = OutcomeEmpty
		}
	}
	res.Duration = time.Since(start)
	return res
}

// scanOnce is one connection attempt; it resets the result's chain state so
// a retried attempt never mixes certificates from a partial predecessor.
func (s *Scanner) scanOnce(ctx context.Context, addr, sni string, res *Result) error {
	res.Raw, res.Chain = nil, nil

	dialCtx := ctx
	if s.Timeout > 0 {
		var cancel context.CancelFunc
		dialCtx, cancel = context.WithTimeout(ctx, s.Timeout)
		defer cancel()
	}
	dial := s.Dialer
	if dial == nil {
		var d net.Dialer
		dial = d.DialContext
	}
	conn, err := dial(dialCtx, "tcp", addr)
	if err != nil {
		res.Outcome = OutcomeDial
		return attemptErr(fmt.Errorf("scanner: dial %s: %w", addr, err), dialCtx, ctx)
	}
	defer conn.Close()

	tc := tls.Client(conn, &tls.Config{
		ServerName:         sni,
		InsecureSkipVerify: true, // observation, not validation
		MinVersion:         tls.VersionTLS12,
	})
	if err := tc.HandshakeContext(dialCtx); err != nil {
		res.Outcome = OutcomeHandshake
		return attemptErr(fmt.Errorf("scanner: handshake %s: %w", addr, err), dialCtx, ctx)
	}
	for _, cert := range tc.ConnectionState().PeerCertificates {
		res.Raw = append(res.Raw, cert.Raw)
		res.Chain = append(res.Chain, certmodel.FromX509(cert))
	}
	return nil
}

// attemptErr marks err retryable when the per-attempt deadline fired while
// the sweep's own context is still alive — that's a slow server, not a
// cancelled scan.
func attemptErr(err error, attemptCtx, parent context.Context) error {
	if attemptCtx.Err() != nil && parent.Err() == nil {
		return resilience.MarkRetryable(err)
	}
	return err
}

// Target pairs an endpoint with the SNI to offer.
type Target struct {
	Addr string
	SNI  string
}

// ScanAll scans targets with bounded concurrency, preserving input order in
// the result slice.
func (s *Scanner) ScanAll(ctx context.Context, targets []Target, parallelism int) []*Result {
	if parallelism < 1 {
		parallelism = 1
	}
	sp := s.Tracer.Start("scan", "scan").
		SetRecords(int64(len(targets))).
		Arg("parallelism", int64(parallelism))
	defer sp.End()
	results := make([]*Result, len(targets))
	sem := make(chan struct{}, parallelism)
	done := make(chan int)
	for i, t := range targets {
		go func(i int, t Target) {
			sem <- struct{}{}
			results[i] = s.Scan(ctx, t.Addr, t.SNI)
			<-sem
			done <- i
		}(i, t)
	}
	for range targets {
		<-done
	}
	var reachable, attempts int64
	for _, r := range results {
		if r.Reachable() {
			reachable++
		}
		attempts += int64(r.Attempts)
	}
	sp.Arg("reachable", reachable)
	sp.Arg("attempts", attempts)
	return results
}

// Summarize tallies sweep outcomes — the graceful-degradation report a CLI
// prints instead of aborting on the first unreachable server.
func Summarize(results []*Result) map[string]int {
	out := make(map[string]int)
	for _, r := range results {
		out[r.Outcome]++
	}
	return out
}

// Comparison is the then-vs-now verdict for one server (§5).
type Comparison struct {
	Addr string
	// OldCategory / NewCategory are the §3.2.2 categories then and now.
	OldCategory chain.Category
	NewCategory chain.Category
	// OldLen / NewLen are the chain lengths.
	OldLen, NewLen int
	// NewVerdict is the structural verdict of the scanned chain.
	NewVerdict chain.Verdict
}

// Compare analyzes a scanned chain against its historical observation.
func Compare(cl *chain.Classifier, addr string, oldChain, newChain certmodel.Chain) *Comparison {
	oldA := cl.Analyze(oldChain)
	newA := cl.Analyze(newChain)
	return &Comparison{
		Addr:        addr,
		OldCategory: oldA.Category,
		NewCategory: newA.Category,
		OldLen:      len(oldChain),
		NewLen:      len(newChain),
		NewVerdict:  newA.Verdict,
	}
}
