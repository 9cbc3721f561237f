GO ?= go

.PHONY: build vet test race bench bench-compare verify verify-static verify-docs clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# -shuffle=on catches order-dependent tests (the session store keeps
# cross-test state candidates: tombstones, reaper timing).
test:
	$(GO) test -shuffle=on ./...

# Race-check everything. The concurrency lives in serve (shared engines +
# pooled scratches, and the follower's apply-vs-query seam), replica (the
# tailer loop vs Status/Close), cleaning, selection (parallel hypothesis
# sweeps), durable (group-commit flusher vs concurrent appenders), and
# segtree — but ./... costs little more and catches races that leak across
# package boundaries (e.g. a serve test driving the WAL).
race:
	$(GO) test -race -shuffle=on ./...

# One iteration per benchmark (a smoke pass), with the raw transcript kept
# in bench.out and a machine-readable summary (name, ns/op, custom metrics
# like scans/op) in BENCH_<date>.json for trend tracking / CI artifacts.
# Two sequenced commands, not a pipe, so a benchmark failure fails the
# target instead of being masked by the parser's exit code. -short skips
# EngineBuild_Scale/N16000, whose data takes ≈15 s to generate.
BENCH_JSON = BENCH_$(shell date +%Y-%m-%d).json

bench:
	$(GO) test -short -run XXX -bench . -benchtime 1x ./... > bench.out || (cat bench.out; exit 1)
	@cat bench.out
	$(GO) run ./internal/tools/benchjson -in bench.out -out $(BENCH_JSON)
	@echo "bench: wrote $(BENCH_JSON)"

# Paired regression gate: the pinned benchmarks (core EngineBuild,
# HypothesisCounts/trunc/K3, HypothesisTape/trunc/K3, Scan/supreme/trunc/K3,
# CleanSession_Loadbench)
# at the merge base and at the working tree, run in 10 alternating pairs;
# fails when the tree is >15% slower in at least 8 pairs (see
# scripts/bench_compare.sh).
bench-compare:
	./scripts/bench_compare.sh

# Docs stay honest: vet catches comment drift, docverify extracts every
# ```go fence from the README and architecture doc and builds it against
# the current module.
verify-docs: vet
	$(GO) run ./internal/tools/docverify README.md docs/ARCHITECTURE.md

# Static analysis: the project-invariant analyzer suite (cpvet, always —
# stdlib-only, so it runs anywhere the toolchain does), the no-FMA check on
# the answer path (an arm64 cross-compile with the local toolchain), then
# staticcheck and govulncheck when their binaries are installed (CI
# installs them; offline dev boxes skip with a note rather than failing
# the target).
verify-static:
	$(GO) run ./cmd/cpvet ./...
	./scripts/fma_check.sh
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; else echo "verify-static: staticcheck not installed; skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; else echo "verify-static: govulncheck not installed; skipping"; fi

# Tier-1 gate plus the race suite, static analysis, and the docs check
# (which runs vet).
verify: build test race verify-static verify-docs

clean:
	rm -f cpbench cpclean cpquery cpserve datagen *.test *.prof bench.out BENCH_*.json
