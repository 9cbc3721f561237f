GO ?= go

.PHONY: build vet test race bench bench-baseline bench-compare verify verify-static verify-docs clean

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
# target instead of being masked by the parser's exit code.
BENCH_JSON = BENCH_$(shell date +%Y-%m-%d).json

bench:
	$(GO) test -run XXX -bench . -benchtime 1x ./... > bench.out || (cat bench.out; exit 1)
	@cat bench.out
	$(GO) run ./internal/tools/benchjson -in bench.out -out $(BENCH_JSON)
	@echo "bench: wrote $(BENCH_JSON)"

# Refresh the committed regression baseline for the pinned sweep benchmarks
# (same benchmark set and iteration count bench-compare measures against).
bench-baseline:
	$(GO) test -run XXX -bench 'Q2_SSDC_K3_N1000|Q2_SSDCMC_K3_N1000_Y2|BatchQ2_Incremental|EngineBuild|Scan|Q1_MM_Engine' -benchtime 50x -count 5 . ./internal/core/ > bench-baseline.out || (cat bench-baseline.out; exit 1)
	@cat bench-baseline.out
	$(GO) run ./internal/tools/benchjson -in bench-baseline.out -out bench/BENCH_baseline.json
	@rm -f bench-baseline.out
	@echo "bench-baseline: wrote bench/BENCH_baseline.json"

# Diff the pinned sweep benchmarks against the committed baseline; fails on
# a >15% ns/op regression (override with BENCH_REGRESSION_PCT).
bench-compare:
	./scripts/bench_compare.sh

# Docs stay honest: vet catches comment drift, docverify extracts every
# ```go fence from the README and architecture doc and builds it against
# the current module.
verify-docs: vet
	$(GO) run ./internal/tools/docverify README.md docs/ARCHITECTURE.md

# Static analysis: the project-invariant analyzer suite (cpvet, always —
# stdlib-only, so it runs anywhere the toolchain does), then staticcheck and
# govulncheck when their binaries are installed (CI installs them; offline
# dev boxes skip with a note rather than failing the target).
verify-static:
	$(GO) run ./cmd/cpvet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; else echo "verify-static: staticcheck not installed; skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; else echo "verify-static: govulncheck not installed; skipping"; fi

# Tier-1 gate plus the race suite, static analysis, and the docs check
# (which runs vet).
verify: build test race verify-static verify-docs

clean:
	rm -f cpbench cpclean cpquery cpserve datagen *.test *.prof bench.out BENCH_*.json
