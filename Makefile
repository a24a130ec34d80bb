GO ?= go

.PHONY: all build test race vet fmt-check fuzz fuzz-kernels fuzz-aggkernels bench bench-concurrency bench-idebench bench-kernels bench-aggkernels bench-shard chaos smoke

all: vet fmt-check build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full suite under the race detector; the concurrency tests in
# internal/core and internal/par are written to give it something to bite.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Fail if any file is not gofmt-clean; prints the offenders.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Short exploratory fuzz of the SQL parser beyond the seed corpus.
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/sqlparse/

# Differential fuzz of the typed predicate kernels against the generic
# evaluator: random tables (plain + dict/RLE-encoded twins, NaN/±Inf,
# int64 extremes) and random conjunctions; any divergence is a bug.
fuzz-kernels:
	$(GO) test -fuzz=FuzzKernelVsGeneric -fuzztime=60s -run '^$$' ./internal/expr/

# Differential fuzz of the typed aggregation kernels: random agg/group-by
# queries over plain + dict/RLE twin tables (NaN/±Inf, int64 extremes,
# fused and fallback WHERE shapes), oracle = sequential generic execution.
fuzz-aggkernels:
	$(GO) test -fuzz=FuzzAggKernelVsGeneric -fuzztime=60s -run '^$$' ./internal/exec/

bench:
	$(GO) test -bench=. -benchtime=1x ./internal/bench/

# Regenerate the concurrent-probe / zone-map baseline (E30) at full size
# and refresh the committed JSON artifact.
bench-concurrency:
	$(GO) run ./cmd/experiments -run E30 -json BENCH_concurrency.json

# Regenerate the IDEBench-style multi-user session baseline (E31) at full
# size — 4 modes × {10,40,100} users plus the prefetch on/off pair — and
# refresh the committed JSON artifact. `go run ./cmd/dexbench` drives
# custom matrices (or an external dexd via -addr).
bench-idebench:
	$(GO) run ./cmd/experiments -run E31 -json BENCH_idebench.json

# Regenerate the typed-kernel / compressed-column scan baseline (E33) —
# kernel vs generic at 1%/10%/50% selectivity plus the dict/RLE encoded
# comparisons — and refresh the committed JSON artifact.
bench-kernels:
	$(GO) run ./cmd/experiments -run E33 -json BENCH_kernels.json

# Regenerate the typed-aggregation baseline (E34) — generic vs predicate
# kernels vs the fused filter→aggregate pipeline, scalar selectivity sweep
# plus dict/int/RLE group-bys — merging the agg section into the committed
# BENCH_kernels.json (E33's scan/encoded sections are preserved).
bench-aggkernels:
	$(GO) run ./cmd/experiments -run E34 -json BENCH_kernels.json

# Regenerate the distributed scatter/gather baseline (E32) at full size —
# the sales table hash-partitioned across 1/2/4 dexd worker processes over
# loopback TCP (healing enabled, as deployed), plus the worker-kill
# degradation demo and its heal: the killed worker restarts blank and the
# coordinator re-stages it back to exactly full coverage — and refresh the
# committed JSON artifact.
bench-shard:
	$(GO) run ./cmd/experiments -run E32 -json BENCH_shard.json

# Seeded chaos harness + cross-mode differential oracles under the race
# detector, twice per seed (CI runs the same line with DEX_CHAOS_SEED
# pinned per matrix job). `go run ./cmd/dexchaos` drives bigger schedules.
chaos:
	$(GO) test -race -run 'Chaos|Oracle' -count=2 ./internal/chaos/ ./internal/exec/

# End-to-end smoke through real dexd processes: one node's observability
# surfaces and SIGTERM drain, then two `dexd -worker` processes behind a
# `dexd -shard-workers` coordinator — one query per execution mode, a
# worker SIGKILL with honest degraded coverage, a blank restart healed back
# to exactly full coverage, and a clean coordinator exit.
smoke:
	$(GO) run ./cmd/dexsmoke
