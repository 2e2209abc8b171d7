#!/usr/bin/env bash
# check.sh — the full local CI gate: build, vet, cvclint, tests, race
# detector, and a short fuzz smoke on the transform invariants.
#
#   bash scripts/check.sh            # full gate (~2 min)
#   FUZZTIME=30s bash scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-10s}"

step() { echo "== $*" >&2; }

# Nothing the gate starts may outlive it: a server, bot, benchmark or test
# binary still alive at exit fails the gate whatever the steps said. pgrep
# matches process names (no -f), so it cannot match this shell's own command
# line. The benchmark's keep-awake spinners are its own binary re-executed
# with CVCBENCH_IDLE_SPIN set, whatever that binary was called, so they are
# found by their environment.
leftovers() {
	status=$?
	left=$(pgrep -l 'cvcbench|reducesrv|reducebot|\.test$' 2>/dev/null) || true
	spin=$(grep -lsa 'CVCBENCH_IDLE_SPIN=' /proc/[0-9]*/environ 2>/dev/null) || true
	if [ -n "$left$spin" ]; then
		printf 'check.sh: processes left running:\n%s\n%s\n' "$left" "$spin" >&2
		status=1
	fi
	exit "$status"
}
trap leftovers EXIT

step "go build ./..."
go build ./...

step "go vet ./..."
go vet ./...

# The poller is build-tag split (linux epoll vs stub): both halves must keep
# compiling even though only one is ever tested here.
step "cross-compile smoke (darwin, windows)"
GOOS=darwin go build ./...
GOOS=windows go build ./...

step "cvclint ./..."
go run ./cmd/cvclint -summary ./...

# The allocation budget: hot functions named in lint/budget.json must stay
# heap-escape-free. The build cache replays the -gcflags='-m -m' diagnostics,
# so a warm run costs a second or two.
step "cvclint -budget"
go run ./cmd/cvclint -budget

step "go test ./..."
go test ./...

# The lazy bridge against the eager model it replaced, at the schedule count
# it was accepted at (`go test` alone runs 500).
step "lazy-bridge differential (10 000 schedules per configuration)"
go test ./internal/core -run='^TestLazyBridgeDifferential$' -count=1 -lazyruns 10000

step "go test -race (scripts/race.sh: engine, op, wire, transport, netpoll, server, obs, sim, root)"
bash scripts/race.sh

# The observability fast paths must stay allocation-free: a single alloc per
# Record would show up on every integrated operation once -debug is on.
step "obs zero-alloc gate"
go test ./internal/obs -run='^TestFastPathAllocFree$' -count=1

# The span tracer's disabled and unsampled paths ride every generated and
# received operation: they must stay at 0 allocs/op or tracing-compiled-in
# taxes the untraced hot path.
step "span zero-alloc gate"
go test ./internal/obs/span -run='^TestFastPathAllocFree$' -count=1

# E14: with sampling on, the full 13-stage table must materialize over
# loopback TCP — every stage histogram sees exactly one delta per op — in
# BOTH scheduling layouts: the single-ring/single-instance reference
# (E14_SHARDS=1: one pooled writer, one dispatch worker, one epoll instance)
# and the sharded layout (E14_SHARDS=4: four of each, one ready-ring shard
# per worker, and parallel fan-out since 128 destinations clear
# transport.DefaultFanoutThreshold; DESIGN.md §18).
step "E14 stage-breakdown smoke (shards=1)"
E14_SHARDS=1 go test . -run='^TestE14StageBreakdown$' -count=1 -short

step "E14 stage-breakdown smoke (shards=4)"
E14_SHARDS=4 go test . -run='^TestE14StageBreakdown$' -count=1 -short

# The E13 capacity claim: 1000 idle connections on the lean layer
# (server.Serve with WithWriterPool + WithEventDispatch, idle dehydration on
# the manager) must cost O(pool) goroutines, and live traffic must still flow
# with the idle fleet attached.
step "E13 goroutine-lean smoke (1k idle conns)"
go test . -run='^TestE13GoroutineLean$' -count=1

# The TCP legs of E13: idle fleets over the epoll poller (where available)
# and over the dedicated-reader fallback must both pass the same gates, so
# -poller=off deployments keep the capacity claim they had before the poller.
# The chaos churn runs on the same lean Service: mem, epoll, and epoll with
# four shards and a parallel fan-out engaged by 16 attached idle replicas.
step "E13 poller + fallback smoke, lean-layout chaos"
go test . -run='^(TestE13PollerTCP|TestPollerFallback|TestChaosLeanNotifier|TestChaosPollerTCP|TestChaosPollerTCPSharded)$' -count=1

# One connection state machine, three readers: every protocol rule and both
# link-ordering guarantees on {dedicated reader, mem dispatcher, epoll
# dispatcher}, and the crash schedule on the journaled lean server.
step "protocol conformance + crash-restart on the unified server"
go test ./internal/server -run='^(TestProtocolConformance|TestLinkOrdering|TestCrashRestartFromJournals|TestWriteAheadDiscipline|TestJournalBlindToAcks|TestRecoveredSessionAssignsFreshSiteIds)$' -count=1

# The repository's benchmark (BENCHMARK.json → bash bench/run.sh) runs at
# 1/100 scale inside `go test ./...` above (bench/bench_test.go); a full run
# is `go run ./bench`, a comparison of two `go run ./bench -compare a b`.
# What follows is the older microbenchmark trajectory, BENCH_notifier.json.
step "bench smoke (benchtime=10x)"
BENCHTIME=10x bash scripts/bench.sh /tmp/bench_smoke.$$.json >/dev/null 2>&1 \
	|| { echo "bench smoke failed" >&2; exit 1; }
rm -f /tmp/bench_smoke.$$.json

# One -fuzz target per invocation: the go tool rejects multiple matches.
step "fuzz smoke: FuzzTransform ($FUZZTIME)"
go test ./internal/op -run='^$' -fuzz='^FuzzTransform$' -fuzztime="$FUZZTIME"

step "fuzz smoke: FuzzCompose ($FUZZTIME)"
go test ./internal/op -run='^$' -fuzz='^FuzzCompose$' -fuzztime="$FUZZTIME"

step "fuzz smoke: FuzzIntegrateEquivalence ($FUZZTIME)"
go test ./internal/core -run='^$' -fuzz='^FuzzIntegrateEquivalence$' -fuzztime="$FUZZTIME"

step "all checks passed"
