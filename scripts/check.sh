#!/usr/bin/env bash
# check.sh — the full local CI gate: build, vet, cvclint, tests, race
# detector, and short fuzz smokes on the transform and rope invariants.
#
#   bash scripts/check.sh            # full gate, ~9 min on 2 CPUs; prints each step's time
#   FUZZTIME=30s bash scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-10s}"

# step names the next step and prints how long the previous one took.
step_name="" step_start=$SECONDS
step() {
	[ -z "$step_name" ] || echo "   ${step_name}: $((SECONDS - step_start))s" >&2
	step_name="$*" step_start=$SECONDS
	echo "== $*" >&2
}

# Every `go test` below carries an explicit -timeout, at least twice the step
# time measured on 2 CPUs (go test ./... 45 s, differential 4 m 05 s, race
# gate 2 m 25 s, fuzz smokes 10-30 s each) and below go test's 10-minute
# default: the test binary's own alarm then fires whatever happened to the
# shell or tool that started it, so a killed gate leaves no <pkg>.test
# behind. TestGateTimeouts (gate_test.go) fails a line without one.
#
# Nothing the gate starts may outlive it: a server, benchmark or test
# binary still alive at exit fails the gate whatever the steps said. pgrep
# matches process names (no -f), so it cannot match this shell's own command
# line. The benchmark's keep-awake spinners are its own binary re-executed
# with CVCBENCH_IDLE_SPIN set, whatever that binary was called, so they are
# found by their environment.
leftovers() {
	status=$?
	left=$(pgrep -l 'cvcbench|reducesrv|\.test$' 2>/dev/null) || true
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

# Everything that is not a different configuration runs here and only here
# (and once more under -race below): the obs and span zero-alloc gates, the
# E13 capacity and chaos tests, protocol conformance and crash-restart on all
# three reader kinds, the cmd/figures goldens, the in-process reducesrv drive,
# and bench/ at 1/100 scale. None of them has a skip condition.
step "go test ./..."
go test -timeout 5m ./...

# The lazy bridge against the eager model it replaced, at the schedule count
# it was accepted at (`go test` alone runs 500).
step "lazy-bridge differential (10 000 schedules per configuration)"
go test ./internal/core -run='^TestLazyBridgeDifferential$' -count=1 -timeout 9m30s -lazyruns 10000

step "go test -race (scripts/race.sh: engine, op, wire, transport, netpoll, server, obs, sim, reducesrv, root)"
bash scripts/race.sh

# E14: with sampling on, the full 13-stage table must materialize over
# loopback TCP — every stage histogram sees exactly one delta per op. `go
# test ./...` ran the default layout; these are the two other configurations:
# the single-ring/single-instance reference (E14_SHARDS=1: one pooled writer,
# one dispatch worker, one epoll instance) and the sharded layout
# (E14_SHARDS=4: four of each, one ready-ring shard per worker, and parallel
# fan-out since 128 destinations clear transport.DefaultFanoutThreshold;
# DESIGN.md §18).
step "E14 stage-breakdown smoke (shards=1)"
E14_SHARDS=1 go test . -run='^TestE14StageBreakdown$' -count=1 -short -timeout 2m

step "E14 stage-breakdown smoke (shards=4)"
E14_SHARDS=4 go test . -run='^TestE14StageBreakdown$' -count=1 -short -timeout 2m

# One -fuzz target per invocation: the go tool rejects multiple matches.
step "fuzz smoke: FuzzTransform ($FUZZTIME)"
go test ./internal/op -run='^$' -fuzz='^FuzzTransform$' -fuzztime="$FUZZTIME" -timeout 5m

step "fuzz smoke: FuzzCompose ($FUZZTIME)"
go test ./internal/op -run='^$' -fuzz='^FuzzCompose$' -fuzztime="$FUZZTIME" -timeout 5m

step "fuzz smoke: FuzzIntegrateEquivalence ($FUZZTIME)"
go test ./internal/core -run='^$' -fuzz='^FuzzIntegrateEquivalence$' -fuzztime="$FUZZTIME" -timeout 5m

# The UTF-8 rope against the []rune reference: multi-leaf documents, every
# rune width, invalid-UTF-8 inserts, leaf-sized inserts and spanning deletes.
# One input is a 64-edit script over documents of up to 16 Ki runes, up to
# milliseconds per run, so the default minute of minimizing each new
# interesting input would take the whole smoke; 50 tries keep it fuzzing
# (60 s on 2 CPUs: 6 727 execs with the default, 126 424 with this).
step "fuzz smoke: FuzzRopeEquivalence ($FUZZTIME)"
go test ./internal/doc -run='^$' -fuzz='^FuzzRopeEquivalence$' -fuzztime="$FUZZTIME" -fuzzminimizetime=50x -timeout 5m

step "all checks passed"
