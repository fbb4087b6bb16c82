GO ?= go

.PHONY: all build test vet lint race bench bench-smoke bench-report ci clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Project-specific static analysis (determinism / hot-path / API
# invariants; see docs/LINTING.md), plus staticcheck when installed.
lint:
	$(GO) run ./cmd/relief-lint ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

# Race-detector pass over the short suite (the golden digests and long
# sweeps are skipped; the parallel sweep harness is the code under test).
race:
	$(GO) test -race -short ./...

# Full benchmark sweep (slow): every figure/table benchmark, with
# allocation stats.
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# One-iteration smoke of the hot-path benchmarks (the main grid's Fig. 4
# and one continuous-contention run); keeps CI honest about simulator
# throughput and allocations without the full sweep's cost.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkFig4$$|BenchmarkScenarioContinuous$$' -benchtime=1x -benchmem .

# Dated benchmark report at the repo root: the full experiment trajectory
# plus distributed sweep throughput (POST /sweep against in-process fleets
# of 1 and 3 replicas). Schema relief-bench/1; see docs/MODEL.md.
bench-report:
	$(GO) run ./cmd/relief-bench -benchjson auto -sweepbench >/dev/null

ci:
	./scripts/ci.sh

clean:
	rm -f BENCH_*.json cpu.out mem.out trace.out
