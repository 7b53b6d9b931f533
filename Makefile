# Development entry points.  `make ci` runs the CI workflow's gated
# make/dune steps: the tree check, build, tests, the six jq-gated
# bench-* experiments and the CLI workflows script (the workflow's
# example and daemon smoke steps live only in .github/workflows/ci.yml).

.PHONY: all build test bench-fast bench-micro bench-cache bench-intra bench-store bench-write bench-distributed clean check-tree ci workflows

all: build

build:
	dune build @all

test:
	dune runtest

# Quick end-to-end smoke of the benchmark harness (small scales, short
# cut-offs); BPQ_JOBS=1 forces a sequential run for comparison.
bench-fast:
	BENCH_FAST=1 dune exec bench/main.exe

# Kernel microbenches (edge-probe, index-lookup, tuple-enum, match-verify)
# on a small IMDb-like graph; jq validates the JSON artefact so CI fails
# on malformed output.
bench-micro:
	BENCH_FAST=1 dune exec bench/main.exe -- micro --json _bench
	jq -e '.kernels | length >= 4' _bench/BENCH_micro.json >/dev/null
	@echo "bench-micro: _bench/BENCH_micro.json OK"

# Cross-query caching experiment: cold vs warm serving of a template
# workload.  jq gates on the invariants, not the timings: answers must be
# byte-identical with caching on/off/at capacity 1/pooled, the warm
# pass must actually hit the result tier (rate 0 means the cache is dead),
# cached buckets must sit off the heap (at most 2 heap words each) and
# the off-heap bytes within the budget.
bench-cache:
	BENCH_FAST=1 dune exec bench/main.exe -- cache --json _bench
	jq -e '.cache.identical and .cache.warm_hit_rate > 0' _bench/BENCH_cache.json >/dev/null
	jq -e '.cache.cache_heap_words_per_bucket <= 2 and .cache.cache_resident_bytes <= .cache.cache_budget_bytes' _bench/BENCH_cache.json >/dev/null
	@echo "bench-cache: _bench/BENCH_cache.json OK"

# Intra-query parallelism experiment: one heavy query on pools of
# 1/2/4/8 domains.  Byte-identity of the answers across pool sizes and
# cache on/off is unconditional; the 4-domain speedup gate only binds on
# hosts that actually offer 4 domains (CI runners do, laptops throttled
# to fewer cores skip it).
bench-intra:
	BENCH_FAST=1 dune exec bench/main.exe -- intra --json _bench
	jq -e '.intra.identical and ((.intra.cpus < 4) or (.intra.speedup_4 >= 1.5))' _bench/BENCH_intra.json >/dev/null
	@echo "bench-intra: _bench/BENCH_intra.json OK"

# Storage-engine experiment: snapshot + paged store on the Fig. 5 scale
# axis.  jq gates the invariants: results byte-identical across the
# in-memory, reloaded-snapshot and paged (starved + comfortable cache)
# backends at every scale; cold-cache bytes-read-per-query for the
# bounded point queries flat (< 2x) while the graph sweep spans >= 10x;
# the loaded indexes hold at most 1.5 heap words per int of the
# snapshot's schema section, and a mem-backend open adds at most one
# live heap word per i64 of the snapshot (counts, not timings).
bench-store:
	BENCH_FAST=1 dune exec bench/main.exe -- store --json _bench
	jq -e '.store.identical and (.store.flatness < 2) and (.store.size_growth >= 10) and (.store.index_words_ratio <= 1.5) and (.store.open_heap_ratio <= 1.0)' _bench/BENCH_store.json >/dev/null
	@echo "bench-store: _bench/BENCH_store.json OK"

# Write-path experiment: a delta log growing to a fixed fraction of |G|
# while reads serve through the overlay.  jq gates the invariants, not
# the timings: mem- and paged-backend overlay reads byte-identical, the
# compacted generation reproduces the overlay's answers exactly, the
# write loop really ran, and read p50 at the final overlay fraction
# stays within 6x of the pure-snapshot baseline.
bench-write:
	BENCH_FAST=1 dune exec bench/main.exe -- write --json _bench
	jq -e '.write.identical and .write.compact_identical and .write.writes_per_s > 0 and (.write.p50_ratio < 6)' _bench/BENCH_write.json >/dev/null
	@echo "bench-write: _bench/BENCH_write.json OK"

# Distributed-execution experiment: the same scale axis with the graph
# hash-partitioned over 4 workers speaking the framed protocol, run in
# both modes (worker-side pushdown and the batched-fetch baseline).
# jq gates the invariants: answers byte-identical to single-node in both
# modes at every scale and at shard counts 1/2/4; pushdown wire
# bytes-per-query for the bounded point queries flat (< 1.5x) while the
# graph sweep spans >= 10x; pushdown moves <= 0.5x the batched bytes;
# rounds stay within the 3-per-plan-op + 1 bound.
bench-distributed:
	BENCH_FAST=1 dune exec bench/main.exe -- distributed --json _bench
	jq -e '.distributed.identical and (.distributed.flatness < 1.5) and (.distributed.size_growth >= 10) and (.distributed.pushdown_ratio <= 0.5) and .distributed.rounds_bounded' _bench/BENCH_distributed.json >/dev/null
	@echo "bench-distributed: _bench/BENCH_distributed.json OK"

clean:
	dune clean

# Fail if build artifacts or local droppings ever land in the index
# again (a committed _build/ shipped with the original seed).
check-tree:
	@bad=$$(git ls-files | grep -E '^_build/|\.install$$' || true); \
	if [ -n "$$bad" ]; then \
	  echo "error: build artifacts tracked by git:"; echo "$$bad"; exit 1; \
	fi
	@echo "tree clean: no build artifacts tracked"

# The snapshot, sharded and write CLI workflows of CI, in a fresh
# temporary directory.
workflows:
	scripts/ci_workflows.sh

ci: check-tree build test bench-micro bench-cache bench-intra bench-store bench-write bench-distributed workflows
