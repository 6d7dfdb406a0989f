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

.PHONY: lint
lint: ## gofmt (diff check) + go vet
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...

.PHONY: perfbench-check
perfbench-check: ## vet + test the nested perfbench module, which the root ./... skips
	cd perfbench && GOFLAGS=-mod=mod GOPROXY=off $(GO) vet ./... && \
		GOFLAGS=-mod=mod GOPROXY=off $(GO) test ./...

.PHONY: check
check: lint build test perfbench-check ## what CI runs

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
