GO ?= go
FUZZTIME ?= 10s

.PHONY: build test vet lint race fuzz benchmark check

build:
	$(GO) build ./...

# Every go test here and in scripts/ carries a -timeout below the 10-minute
# default (gate_test.go checks), so no test binary can outlive its caller.
test:
	$(GO) test -timeout 5m ./...

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
	$(GO) test ./internal/op -run='^$$' -fuzz='^FuzzTransform$$' -fuzztime=$(FUZZTIME) -timeout 5m
	$(GO) test ./internal/op -run='^$$' -fuzz='^FuzzCompose$$' -fuzztime=$(FUZZTIME) -timeout 5m

# check is the full local CI gate; see scripts/check.sh.
check:
	FUZZTIME=$(FUZZTIME) bash scripts/check.sh
