#!/usr/bin/env bash
# race.sh — the race-detector gate. The one list of packages with real
# concurrency in them; `make race` and scripts/check.sh both run this file,
# so the two cannot drift apart.
set -euo pipefail
cd "$(dirname "$0")/.."

exec go test -race "$@" \
	./internal/core ./internal/op ./internal/wire \
	./internal/transport ./internal/transport/netpoll \
	./internal/server ./internal/obs ./internal/sim .
