#!/usr/bin/env bash
# race.sh — the race-detector gate. The one list of packages with real
# concurrency in them; `make race` and scripts/check.sh both run this file,
# so the two cannot drift apart. -timeout is per package: internal/core, the
# slowest, takes two and a half to four minutes under -race on 2 CPUs.
set -euo pipefail
cd "$(dirname "$0")/.."

exec go test -race -timeout 8m "$@" \
	./internal/core ./internal/op ./internal/wire \
	./internal/transport ./internal/transport/netpoll \
	./internal/server ./internal/obs ./internal/sim ./cmd/reducesrv .
