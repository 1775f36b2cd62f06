#!/bin/sh
# verify.sh — the repo's full verification gate: static checks, a clean
# build, and the entire test suite under the race detector (the concurrent
# server/client paths are only trustworthy -race clean). `make verify` runs
# this; CI should too. The tier-1 subset (build + tests without -race) is
# what ROADMAP.md tracks as the never-regress line.
set -eu
cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...
echo "== go build =="
go build ./...
echo "== generic kernels (GOARCH=arm64 vet) =="
# dist, lsh, imaging, sift and pose have SSE2 assembly on amd64 and their
# generic Go twins everywhere else; vetting for arm64 type-checks and vets
# the fallback files the amd64 build never compiles. Needs no network.
GOARCH=arm64 go vet ./internal/dist ./internal/lsh ./internal/imaging ./internal/sift ./internal/pose
echo "== api compatibility gate =="
# Diff the exported surface of the root package against the checked-in
# snapshot (testdata/api.txt). Also runs as part of the full test pass
# below; re-run explicitly so an accidental API break names itself here.
go test . -count=1 -run TestPublicAPISnapshot
echo "== go test -race =="
# internal/server alone runs ~170 s under -race on a 2-vCPU host (2.9 min
# wall with its build; its slowest tests are the wardriven end-to-end,
# failure-mode and recovery scenarios), under a third of go test's 600 s
# default per-binary timeout; 20 minutes leaves room for the packages ./...
# runs beside it on a slower or busier host.
go test -race -timeout 20m ./...
echo "== chaos / fault-injection (race) =="
# The request-lifecycle suite (deadline propagation, cancel, shed, drain),
# the netsim fault-injection run, the replication fleet suite (failover
# preserving acked ingests, full-sync surviving feed loss), and the
# session-table churn/expiry hammer — plus the three tests that are the whole
# proof of the lock-free read path (readers racing ingest see only complete
# views, a held view outlives later batches, Locate never takes db.mu) —
# and the oracle-sync tests, the whole proof that a held OracleSync handle
# stays byte-equal to the server's oracle (delta chains, catch-up across
# epochs, syncs of a venue before it exists). Already part of the full
# -race pass above; re-run un-cached and verbose-on-failure so a flake
# names itself.
go test -race -count=1 -short -run \
	'TestChaos|TestShutdown|TestShedUnderBurst|TestCancelFreesServerSlot|TestDeadlineEnforcedServerSide|TestProxy|TestConcurrentIngestLocateSnapshots|TestHeldViewOutlivesLaterBatches|TestLocateLockFreeUnderWriteLock|TestOracleSync|TestSyncBeforeFirstIngest|TestReadRPCsNeverCreateVenues' \
	./internal/server/ ./internal/netsim/ ./internal/repl/ ./internal/track/
# The session-table churn again, full length and without -race (~2 s): its
# eviction/expiry assertion depends on the goroutine schedule, so fifty runs
# make a schedule-dependent regression name itself.
go test -count=50 -run TestChaosTrackChurn ./internal/track/
echo "== client same-bits (race) =="
# The client's per-frame work (blur, SIFT, oracle select) runs in parallel
# and must give the same bits on any core count. Its bit-identity tests:
# the goldens, the per-pixel and per-bin reference comparisons, and the
# worker-count and concurrent-caller checks; plus the parity tests holding
# the SSE2 kernels (blur taps, LSH projection, descriptor distance, SIFT
# gradients) to their generic Go twins; plus the root pipeline's answers
# digest, which pins the whole client flow (wardrive, extract, select,
# localize) end to end. Already part of the full -race pass above; re-run
# un-cached so a reordered float operation names itself.
go test -race -count=1 -run \
	'TestDetectGolden|TestDetectWorkerIndependent|TestGaussianBlur|TestTrilinearAdd|TestSelectUnique|TestAddTapsMatchesGeneric|TestProjectMatchesGeneric|TestSqMatchesGeneric|TestSqLimitMatchesGeneric|TestGradientsMatchGeneric|TestPipelineAnswersGolden' \
	. ./internal/sift ./internal/imaging ./internal/core ./internal/lsh ./internal/dist
echo "== pose same-bits (race) =="
# The pose objective's pair sum runs in an SSE2 kernel on amd64: its parity
# test against the Go loop, the per-pair residual against the plain
# reference in both kernel lanes, and the whole venue-wide solve against a
# reference solver. Already part of the full -race pass above; re-run
# un-cached so a reordered float operation names itself.
go test -race -count=1 -run \
	'TestPairSumMatchesGeneric|TestResidualMatchesReference|TestLocalizeMatchesReferenceSolver' \
	./internal/pose
echo "== kernel parity without FMA =="
# Neither a kernel nor its generic twin fuses a multiply-add, so the parity
# tests must also hold with the runtime's FMA paths switched off. The
# detector goldens stay out of this step: math.Exp takes an FMA path on
# hosts that have one, and the digests were recorded on such a host.
GODEBUG=cpu.fma=off go test -count=1 -run \
	'TestAddTapsMatchesGeneric|TestProjectMatchesGeneric|TestSqMatchesGeneric|TestSqLimitMatchesGeneric|TestGradientsMatchGeneric|TestPairSumMatchesGeneric' \
	./internal/sift ./internal/imaging ./internal/lsh ./internal/dist ./internal/pose
echo "== fuzz (short) =="
make fuzz-short
echo "== benchmark module =="
# benchmark/ is its own module, so the root ./... patterns above never
# compile it: a root-API change that breaks it would go unnoticed here.
(cd benchmark && go vet . && go test -short .)
echo "verify: OK"
