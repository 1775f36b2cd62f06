# VisualPrint build/verify targets.

.PHONY: build test verify chaos fuzz-short bench-check loc clean

build:
	go build ./...

# Tier-1: the never-regress line tracked by ROADMAP.md.
test:
	go build ./... && go test ./...

# Full gate: vet + build + the whole suite under the race detector,
# including the chaos/fault-injection lifecycle tests, the short fuzz pass
# and the out-of-module benchmark's own build and tests.
verify:
	sh scripts/verify.sh

# Ten seconds of coverage-guided fuzzing on every Fuzz* target under
# internal/ (go test -fuzz takes one target in one package at a time, so the
# list comes from `go test -list`; a new target needs no edit here). Today:
# the request-header decoder and the ingest/query body decoders, the first
# bytes of every request the server parses; the response decoders a client
# or replica runs on a peer's answer (FuzzResponseBodies) and the delta
# chain decoder (FuzzDecodeChain, odelta); plus the snapshot and download
# decoders FuzzReadIndex (lsh) and FuzzOracleRead (core); and WAL recovery
# plus the replication stream's WALReader on one segment (FuzzWALSegment,
# store); and the VPDB2 database snapshot a shard recovers from and a replica
# full-syncs from (FuzzSnapshot, server); and the SSE2 descriptor-distance
# kernel against its scalar reference (FuzzSqLimit, dist) and the pose
# objective's pair-sum kernel against its Go loop (FuzzPairSum, pose). New inputs go to the Go build cache; a crasher is written under
# the package's testdata/fuzz and should be committed with its fix. Minimizing each new corpus entry is capped at 1 s:
# the default (60 s) can spend a whole 10 s budget shrinking one input.
fuzz-short:
	@go test -list '^Fuzz' ./internal/... | \
	awk '/^Fuzz/ { names[n++] = $$1 } /^ok/ { for (i = 0; i < n; i++) print $$2, names[i]; n = 0 }' | \
	while read -r pkg target; do \
		echo "== fuzz $$pkg $$target =="; \
		go test "$$pkg" -run '^$$' -fuzz "^$$target\$$" -fuzztime=10s -fuzzminimizetime=1s || exit 1; \
	done

# The request-lifecycle and replication chaos suites alone, full-length,
# under -race: fault-injection proxy (latency, partitions — symmetric and
# one-way — blackhole, refused dials) against live clients with deadlines,
# retries and reconnects, plus the replication fleet tests (failover with
# acked-ingest preservation, full-sync feed loss mid-snapshot) and the
# session-table churn/expiry hammer. `go test -short` runs an abbreviated
# round as part of the normal suite.
chaos:
	go test -race -count=1 -v -run \
		'TestChaos|TestShutdown|TestShedUnderBurst|TestCancelFreesServerSlot|TestDeadlineEnforcedServerSide|TestProxy' \
		./internal/server/ ./internal/netsim/ ./internal/repl/ ./internal/track/

# The one benchmark gate: each workload of BENCHMARK.json for 3 s through
# benchmark/ (public API, loopback TCP), appended to bench_current.json (a
# build artifact, never committed). A run exits non-zero when a wire answer
# is not bit-identical to in-process Locate, an operation fails, or a
# position-error or oracle-equality check reports a PROBLEM; that status is
# the gate. There is no wall-clock threshold: one run on a shared host
# cannot carry one (benchmark/README.md "The statistic"). A performance
# claim is scripts/bench-pair.sh over alternating pairs.
bench-check:
	rm -f bench_current.json
	bash benchmark/run.sh --workload frame_walk --seed 1 --seconds 3 -out bench_current.json
	bash benchmark/run.sh --workload fingerprint_arrivals --seed 1 --seconds 3 -out bench_current.json
	bash benchmark/run.sh --workload session_walk --seed 1 --seconds 3 -out bench_current.json
	bash benchmark/run.sh --workload wardrive_mix --seed 1 --seconds 3 -out bench_current.json

# Non-test Go lines (wc -l) per package directory and in total: the size
# figure ROADMAP.md quotes. cmd/ and examples/ count; benchmark/ (its own
# module) and the A/B worktrees under .bench_build/ do not.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' -exec wc -l {} + | \
	awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
	END { for (d in n) printf "%6d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%6d  total\n", t }'

# Remove built binaries and any data directories left by manual testing.
# Test-created data dirs live under the test tempdir and clean themselves up.
clean:
	go clean ./...
	rm -rf bin/ *.vpdata data/ bench_current.json .bench_build/
