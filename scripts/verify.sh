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
echo "== api compatibility gate =="
# Diff the exported surface of the root package against the checked-in
# snapshot (testdata/api.txt). Also runs as part of the full test pass
# below; re-run explicitly so an accidental API break names itself here.
go test . -count=1 -run TestPublicAPISnapshot
echo "== go test -race =="
go test -race ./...
echo "== chaos / fault-injection (race) =="
# The request-lifecycle suite (deadline propagation, cancel, shed, drain),
# the netsim fault-injection run, the replication fleet suite (failover
# preserving acked ingests, full-sync surviving feed loss), and the
# session-table churn/expiry hammer. Already part of the full -race pass
# above; re-run un-cached and verbose-on-failure so a flake names itself.
go test -race -count=1 -short -run \
	'TestChaos|TestShutdown|TestShedUnderBurst|TestCancelFreesServerSlot|TestDeadlineEnforcedServerSide|TestProxy' \
	./internal/server/ ./internal/netsim/ ./internal/repl/ ./internal/track/
echo "== fuzz (short) =="
make fuzz-short
echo "== benchmark module =="
# benchmark/ is its own module, so the root ./... patterns above never
# compile it: a root-API change that breaks it would go unnoticed here.
(cd benchmark && go vet . && go test -short .)
echo "verify: OK"
