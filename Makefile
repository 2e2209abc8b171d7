GO ?= go
FUZZTIME ?= 10s

.PHONY: build test vet lint race fuzz bench benchmark check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint runs the analyzer suite (with a per-rule summary) and the
# allocation-budget gate over lint/budget.json.
lint:
	$(GO) run ./cmd/cvclint -summary ./...
	$(GO) run ./cmd/cvclint -budget

# race runs the race detector over the one package list scripts/check.sh
# also uses (scripts/race.sh).
race:
	bash scripts/race.sh

# bench refreshes BENCH_notifier.json, the committed hot-path trajectory
# point; see scripts/bench.sh.
bench:
	bash scripts/bench.sh

# benchmark runs the repository's benchmark (BENCHMARK.json, bench/README.md):
# four closed-loop workloads against the default server layout, every
# end-to-end and per-layer metric, results in bench/out/results.json (~2 min).
# One workload the way the driver runs it:
#   bash bench/run.sh --workload fanout --seed 7 --seconds 20 --trace 0
# Two result files side by side:
#   go run ./bench -compare old/results.json bench/out/results.json
benchmark:
	$(GO) run ./bench

fuzz:
	$(GO) test ./internal/op -run='^$$' -fuzz='^FuzzTransform$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/op -run='^$$' -fuzz='^FuzzCompose$$' -fuzztime=$(FUZZTIME)

# check is the full local CI gate; see scripts/check.sh.
check:
	FUZZTIME=$(FUZZTIME) bash scripts/check.sh
