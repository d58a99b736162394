# certchains build targets.

GO ?= go

.PHONY: all build vet lint test race bench bench-compare fuzz report experiments ingest-smoke obs-smoke dist-smoke chaos clean

all: build vet lint test

build:
	$(GO) build ./...

# Static analysis: go vet plus certchain-vet, the project-invariant suite
# (determinism, merge/snapshot completeness, resilience conventions, hot-path
# allocations, lock discipline). Suppressions live in .certchain-vet.json
# (reason required per entry; stale entries fail). The JSON artifact is what
# CI uploads.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/certchain-vet -artifact vet-report.json .

# Lint: the vet suite and — when installed — staticcheck and govulncheck.
# The external tools are gated on `command -v` so offline checkouts still
# lint; CI installs both.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo staticcheck ./...; staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		echo govulncheck ./...; govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping"; \
	fi

test:
	$(GO) test ./...

# Full suite under the race detector — exercises the sharded pipeline, the
# classifier/registry locks, and a CT-mismatch detector shared across
# goroutines.
# The serving-telemetry tests (HTTP middleware families, access logs,
# concurrent scrapes, route parsing) have no smoke target of their own: they
# run here and under `make test`.
race:
	$(GO) test -race ./...

# End-to-end smoke over the streaming ingest daemon: the batch-equivalence
# suite, the in-process daemon lifecycle, the golden bytes of both sealed
# state formats (a format change fails here by name; the analysis partial is
# pinned twice, once by a state that writes all 30 of its keys), partial
# state decoded by a pipeline whose linter setting differs from the
# encoder's, a restored daemon snapshotting before its logs reopen, readers
# beside a paced feeder under the race detector (every /report body equals a
# lock-held reference at a poll boundary), and the process-level SIGINT
# tests (real binaries, real signals, final snapshot on disk).
ingest-smoke:
	$(GO) test -count=1 -run 'TestIngestorMatchesBatch|TestDaemonGracefulShutdown' ./internal/ingest/
	$(GO) test -count=1 -run 'TestIngestStateGolden|TestSnapshotBeforeReopenKeepsOffsets' ./internal/ingest/
	$(GO) test -count=1 -run 'TestAnalysisStateGolden|TestAnalysisStateGoldenAllKeys|TestDecodeStateAcrossLinters' ./internal/analysis/
	$(GO) test -race -count=1 -run 'TestReportBesideIngest' ./internal/ingest/
	$(GO) test -count=1 -run 'TestSignalShutdownWritesSnapshot' ./cmd/certchain-ingestd/
	$(GO) test -count=1 -run 'TestServeShutsDownOnInterrupt' ./cmd/ctlog/

# Observability smoke: a real certchain-analyze run's -trace and -manifest
# artifacts validate (one span set per declared stage, manifest schema),
# the manifest's deterministic subset is byte-identical across seeds ×
# worker widths, and every serving binary's /metrics passes the
# exposition-format conformance checker.
obs-smoke:
	$(GO) test -count=1 -run 'TestObsArtifactsSmoke' ./cmd/certchain-analyze/
	$(GO) test -count=1 -run 'TestManifestSubsetEquivalence' ./internal/analysis/
	$(GO) test -count=1 -run 'TestServeMuxAdminEndpoints' ./cmd/ctlog/
	$(GO) test -count=1 -run 'TestStatsPrometheusConformance|TestFillEscapesHostileLabels' ./internal/ingest/

# Distributed topology smoke: the three-rung equivalence claim — one
# sequential pass, N goroutines in one process, N worker processes — is
# byte-identical on text report, JSON export, and manifest deterministic
# subset; then the real-binary rung (3 certchain-shardd + certchain-coord vs
# the single-process -local run), including the chaos run that SIGKILLs a
# worker mid-partition and still demands identical bytes. The trace tests
# cover the cross-process spliced Chrome trace: worker span sets ride the
# partial snapshots, stale-run spans are fenced out, and the real-binary run
# emits one artifact with coordinator + every worker's tracks.
dist-smoke:
	$(GO) test -count=1 -run 'TestDistTopologyEquivalence|TestCoordWorkerDeathRequeue|TestCoordDuplicateCompletion|TestDistSplicedTrace|TestDistStaleTraceNotSpliced|TestRunLocalTrace' ./internal/dist/
	$(GO) test -count=1 -run 'TestDistProcessEquivalence|TestDistProcessTrace|TestDistChaosKillWorker' ./cmd/certchain-coord/

# Chaos suite: every fault-injection matrix under the race detector —
# scanner dial faults, ctlog HTTP faults, middlebox upstream timeout/retry,
# zeek tailer file faults (including the fault-plan fuzzer's corpus), and
# the ingest chaos-equivalence suite (faulted runs byte-identical to
# fault-free at every worker width) — plus a coverage ratchet on the
# resilience layer itself. The floor only moves up.
RESILIENCE_COVER_FLOOR = 90
chaos:
	$(GO) test -race -count=1 ./internal/resilience/
	$(GO) test -race -count=1 -run 'TestScanChaos|TestScanAllChaos' ./internal/scanner/
	$(GO) test -race -count=1 -run 'TestCTLog' ./internal/ctlog/
	$(GO) test -race -count=1 -run 'TestProxyUpstream' ./internal/middlebox/
	$(GO) test -race -count=1 -run 'TestTailer|FuzzTailerWithFaults' ./internal/zeek/
	$(GO) test -race -count=1 -run 'TestIngestChaosEquivalence|TestIngestSnapshotWriteRetry|TestDaemonChaosE2E' ./internal/ingest/
	@cov=$$($(GO) test -count=1 -cover ./internal/resilience/ | grep -o 'coverage: [0-9.]*%' | grep -o '[0-9.]*'); \
	echo "internal/resilience coverage: $$cov% (floor $(RESILIENCE_COVER_FLOOR)%)"; \
	awk -v c="$$cov" -v f="$(RESILIENCE_COVER_FLOOR)" 'BEGIN { exit (c+0 >= f) ? 0 : 1 }' \
		|| { echo "coverage ratchet failed: $$cov% < $(RESILIENCE_COVER_FLOOR)%"; exit 1; }

# One Go benchmark per paper table/figure plus ablations (bench_test.go),
# the log writers (zeek.LogWriter per row, campus.Replay rows/s and
# allocs/row), then certchain-bench: the four BENCHMARK.json workloads from
# Zeek log bytes to report bytes, as tables (cmd/certchain-bench/README.md).
bench:
	$(GO) test -bench=. -benchmem .
	$(GO) test -run '^$$' -bench 'Write|Replay' -benchmem ./internal/zeek ./internal/campus
	$(GO) run ./cmd/certchain-bench

# The performance gate, and the only one: certchain-bench on BASE and on the
# working tree, one after the other on this machine, then -compare, which
# exits 1 when any end-to-end metric is worse than BASE beyond its
# BENCHMARK.json bound (5% on the two allocation metrics, 25% on timed ones
# and RSS). Paired runs, not a committed result file: timed metrics do not
# transfer between machines. BASE is checked out as a detached worktree under
# .bench-compare/, which `make clean` removes.
BASE ?= HEAD~1
bench-compare:
	rm -rf .bench-compare && git worktree prune
	git worktree add --detach .bench-compare/base $(BASE)
	cd .bench-compare/base && $(GO) run ./cmd/certchain-bench -out ../base.json
	$(GO) run ./cmd/certchain-bench -out .bench-compare/head.json
	$(GO) run ./cmd/certchain-bench -compare .bench-compare/base.json .bench-compare/head.json

# Short fuzz pass over the parsers, the log writers' encoders (against
# strconv and encoding/json) and the shard-merge property (longer runs:
# increase -fuzztime).
fuzz:
	$(GO) test -fuzz FuzzParse -fuzztime 30s ./internal/dn/
	$(GO) test -fuzz FuzzFieldRoundTrip -fuzztime 20s ./internal/zeek/
	$(GO) test -fuzz FuzzReader -fuzztime 20s ./internal/zeek/
	$(GO) test -fuzz FuzzJSONReader -fuzztime 20s ./internal/zeek/
	$(GO) test -fuzz FuzzTailerWithFaults -fuzztime 30s ./internal/zeek/
	$(GO) test -fuzz FuzzTSVDecodeEquivalence -fuzztime 30s ./internal/zeek/
	$(GO) test -fuzz FuzzJSONDecodeEquivalence -fuzztime 30s ./internal/zeek/
	$(GO) test -fuzz FuzzFastJoinBlockCuts -fuzztime 30s ./internal/zeek/
	$(GO) test -fuzz FuzzGroupedLoadBlockCuts -fuzztime 30s ./internal/zeek/
	$(GO) test -fuzz FuzzStreamDecodeEquivalence -fuzztime 30s ./internal/zeek/
	$(GO) test -fuzz FuzzAppendEpoch -fuzztime 20s ./internal/zeek/
	$(GO) test -fuzz FuzzJSONWire -fuzztime 30s ./internal/zeek/
	$(GO) test -fuzz FuzzShardMerge -fuzztime 30s ./internal/analysis/
	$(GO) test -fuzz FuzzRegistryMerge -fuzztime 20s ./internal/obs/
	$(GO) test -fuzz FuzzLintChain -fuzztime 30s ./internal/lint/
	$(GO) test -fuzz FuzzPartialSnapshotDecode -fuzztime 20s ./internal/analysis/

# The full paper report with paper-vs-measured verification.
report:
	$(GO) run ./cmd/certchain-analyze -scale 0.01 -verify

# Regenerate the artifacts EXPERIMENTS.md records.
experiments:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

clean:
	rm -f test_output.txt bench_output.txt vet-report.json
	rm -rf .bench-compare && git worktree prune
