GO ?= go

.PHONY: help
help: ## list targets
	@awk 'BEGIN {FS = ":.*##"} /^[a-zA-Z_-]+:.*##/ {printf "  %-12s %s\n", $$1, $$2}' $(MAKEFILE_LIST)

.PHONY: build
build: ## compile every package and command
	$(GO) build ./...

.PHONY: test
test: ## run all tests with the race detector
	$(GO) test -race ./...

.PHONY: bench
bench: ## sim + engine + fabric benchmarks with -benchmem, emitting BENCH_sim.json + BENCH_fabric.json
	./scripts/bench.sh

.PHONY: bench-fabric
bench-fabric: ## multitask kernel benchmark at partition counts 1/2/4
	$(GO) test -run=^$$ -bench=BenchmarkMultitaskRun -benchmem ./internal/sim

.PHONY: bench-all
bench-all: ## run the full benchmark suite (regenerates the paper's numbers)
	$(GO) test -run=^$$ -bench=. -benchmem ./...

.PHONY: bench-sweep
bench-sweep: ## serial vs concurrent engine on the §7 grid
	$(GO) test -run=^$$ -bench=BenchmarkEngineSweep -benchtime=3x .

PROFILE_DIR ?= profiles

.PHONY: profile
profile: ## CPU profile of BenchmarkSimRun per approach, plus pprof -top, into PROFILE_DIR (default profiles/)
	mkdir -p $(PROFILE_DIR)
	for ap in no-prefetch run-time hybrid; do \
		$(GO) test -run='^$$' -bench="^BenchmarkSimRun$$/^$$ap$$" -benchtime=3s -benchmem \
			-o $(abspath $(PROFILE_DIR))/sim.test \
			-cpuprofile $(abspath $(PROFILE_DIR))/simrun-$$ap.prof ./internal/sim || exit 1; \
		$(GO) tool pprof -top $(PROFILE_DIR)/sim.test $(PROFILE_DIR)/simrun-$$ap.prof \
			> $(PROFILE_DIR)/simrun-$$ap.top.txt || exit 1; \
	done

.PHONY: lint
lint: ## gofmt (diff check) + go vet
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...

.PHONY: perfbench-check
perfbench-check: ## vet + test the nested perfbench module, which the root ./... skips
	cd perfbench && GOFLAGS=-mod=mod GOPROXY=off $(GO) vet ./... && \
		GOFLAGS=-mod=mod GOPROXY=off $(GO) test ./...

FUZZTIME ?= 10s

.PHONY: fuzz-smoke
fuzz-smoke: ## run each fuzz target for FUZZTIME (default 10s) beyond its committed corpus
	$(GO) test -run='^$$' -fuzz='^FuzzParseRun$$' -fuzztime=$(FUZZTIME) ./internal/workload
	$(GO) test -run='^$$' -fuzz='^FuzzDecode$$' -fuzztime=$(FUZZTIME) ./internal/peerstore
	$(GO) test -run='^$$' -fuzz='^FuzzParseGrid$$' -fuzztime=$(FUZZTIME) ./internal/cluster
	$(GO) test -run='^$$' -fuzz='^FuzzReplicasUpdate$$' -fuzztime=$(FUZZTIME) ./internal/cluster
	$(GO) test -run='^$$' -fuzz='^FuzzPeersRequest$$' -fuzztime=$(FUZZTIME) ./internal/server
	$(GO) test -run='^$$' -fuzz='^FuzzChromeTrace$$' -fuzztime=$(FUZZTIME) ./internal/obs
	$(GO) test -run='^$$' -fuzz='^FuzzReorder$$' -fuzztime=$(FUZZTIME) ./internal/schedule

.PHONY: examples
examples: ## run every examples/* program, and cmd/schedviz in each -mode and -format, diffing stdout against testdata/examples
	GO=$(GO) ./scripts/examples.sh

.PHONY: examples-update
examples-update: ## rewrite the testdata/examples goldens from the current tree
	GO=$(GO) ./scripts/examples.sh -update

.PHONY: check
check: lint build test examples perfbench-check ## gofmt + vet, build, race tests, examples, perfbench vet+test (CI also runs fuzz-smoke, bench.sh, smoke.sh, bench_cluster.sh)

.PHONY: experiments
experiments: ## regenerate every table and figure of the paper
	$(GO) run ./cmd/experiments -cachestats

.PHONY: serve
serve: ## run the drhwd scheduling service on :8080
	$(GO) run ./cmd/drhwd -addr 127.0.0.1:8080

.PHONY: bench-cluster
bench-cluster: ## coordinator sweep throughput at 1 vs 2 replicas, emitting BENCH_cluster.json
	./scripts/bench_cluster.sh

.PHONY: loadtest
loadtest: ## smoke test: drhwd under load, then drhwcoord over 2 replicas diffed against single node
	./scripts/smoke.sh
