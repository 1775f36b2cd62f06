# VisualPrint build/verify targets.

.PHONY: build test verify chaos fuzz-short bench bench-short bench-check \
	bench-cores bench-track bench-track-short bench-oracle clean

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

# Ten seconds of coverage-guided fuzzing on the request-header decoder, the
# first bytes of every request the server parses. New inputs go to the Go
# build cache; a crasher is written under internal/server/testdata/fuzz and
# should be committed with its fix.
fuzz-short:
	go test ./internal/server -run '^$$' -fuzz '^FuzzRequestHeader$$' -fuzztime=10s

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

# Full measurement run: Go benchmarks once through, then the standard
# Locate workload with the machine-readable result in BENCH_locate.json
# (ns/op, allocs/op, queries/s at 1/2/4 clients, QPS-vs-cores curve at
# GOMAXPROCS 1/2/4, speedup vs the recorded pre-optimization baseline).
bench:
	go test -run NONE -bench . -benchtime 1x .
	go run ./cmd/vpbench -exp locate -scale full -cores 1,2,4 \
		-locate-json BENCH_locate.json
	go run ./cmd/vpbench -exp oracle -scale full -oracle-json BENCH_oracle.json

# CI-sized locate benchmark: same schema and code paths at ~10x less
# compute, keeping BENCH_locate.json generation exercised on every push.
bench-short:
	go run ./cmd/vpbench -exp locate -scale quick -cores 1,2 \
		-locate-json BENCH_locate_short.json

# CI regression gate: run the short locate workload into bench_current.json
# (left as a build artifact, never committed) and fail if ns/op regressed
# more than 2x against the checked-in BENCH_locate_short.json baseline,
# or if 2-core QPS falls below 1.5x 1-core (the gate auto-skips on hosts
# with a single CPU, where scaling is unmeasurable). The second pass runs
# the same workload against a 4-shard venue under the same 2x gate: the
# other workloads all use the one-shard default venue, so this is the only
# number CI has for the scatter-gather route.
bench-check:
	go run ./cmd/vpbench -exp locate -scale quick \
		-locate-json bench_current.json \
		-baseline BENCH_locate_short.json -max-regress 2.0 \
		-cores 1,2 -cores-gate 1.5
	go run ./cmd/vpbench -exp locate -scale quick -locate-shards 4 \
		-locate-json bench_sharded_current.json \
		-baseline BENCH_locate_sharded_short.json -max-regress 2.0
	go run ./cmd/vpbench -exp oracle -scale quick \
		-oracle-json bench_oracle_current.json -oracle-gate 5

# Continuous-localization walk benchmark: the standard 24-frame walk
# solved cold (session-less) and warm (one tracked session), comparing DE
# generations and pose accuracy. Machine-readable result in
# BENCH_track.json; the acceptance line is gen_ratio <= 0.5 at
# median_err_m no worse than cold (pinned by TestTrackBenchmarkWarmSaves).
bench-track:
	go run ./cmd/vpbench -exp track -scale full -track-json BENCH_track.json

# CI-sized walk (smaller corpus, 10 frames), same schema and code paths.
bench-track-short:
	go run ./cmd/vpbench -exp track -scale quick -track-json BENCH_track_short.json

# Oracle distribution downlink benchmark alone: bytes-per-client-per-update
# for versioned delta sync vs pre-epoch full refetch across wardrive update
# sizes, written to BENCH_oracle.json. The acceptance line is >= 5x
# reduction at the smallest update size (gated by bench-check).
bench-oracle:
	go run ./cmd/vpbench -exp oracle -scale full -oracle-json BENCH_oracle.json

# QPS-vs-cores sweep alone, at full workload scale: GOMAXPROCS pinned to
# 1, 2 and 4 per point (plus 8 when the host has that many CPUs — edit the
# list below), curve written into BENCH_locate.json.
bench-cores:
	go run ./cmd/vpbench -exp locate -scale full -cores 1,2,4 \
		-locate-json BENCH_locate.json

# Remove built binaries and any data directories left by manual testing.
# Test-created data dirs live under the test tempdir and clean themselves up.
clean:
	go clean ./...
	rm -rf bin/ *.vpdata data/
