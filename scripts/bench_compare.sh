#!/usr/bin/env bash
# Guards the pinned sweep benchmarks against ns/op regressions: re-runs them
# at a steadier iteration count than the `make bench` smoke pass, converts
# the transcript with benchjson, and diffs it against the committed baseline
# with benchcompare — failing on any >BENCH_REGRESSION_PCT% (default 15)
# ns/op regression. Both files carry benchjson's host stamp (nproc,
# GOMAXPROCS, Go version, GOOS/GOARCH), and benchcompare fails when the
# stamps differ: a baseline only gates runs on a host of its own shape.
# Each file also records the host's speed on a fixed loop; benchcompare
# prints both and warns (without failing) when they differ by over 1.25×.
# With no committed baseline the script warns and exits 0,
# so a fresh checkout is never broken by a missing artifact; under GitHub
# Actions the warning is also a ::warning:: annotation naming the file, so
# the skipped gate shows on the run page instead of passing silently.
#
# Refresh the baseline after an intentional perf change:
#   make bench-baseline && git add bench/BENCH_baseline.json
#
# Environment:
#   BENCH_REGRESSION_PCT   regression threshold in percent (default 15)
#   BENCH_COMPARE_MATCH    comma-separated benchmark name substrings
#                          (default the pinned sweep benchmarks);
#                          CleanSession_Loadbench is always compared too
#   BENCH_COMPARE_TIME     -benchtime for the comparison run (default 50x, best of BENCH_COMPARE_COUNT=5 runs)
#   BENCH_BASELINE         baseline path (default bench/BENCH_baseline.json)
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE=${BENCH_BASELINE:-bench/BENCH_baseline.json}
PCT=${BENCH_REGRESSION_PCT:-15}
MATCH=${BENCH_COMPARE_MATCH:-Q2_SSDC_K3_N1000,Q2_SSDCMC_K3_N1000_Y2,BatchQ2_Incremental,EngineBuild,Scan,HypothesisCounts,Q1_MM_Engine}
TIME=${BENCH_COMPARE_TIME:-50x}
COUNT=${BENCH_COMPARE_COUNT:-5}

if [[ ! -f "$BASELINE" ]]; then
  echo "bench_compare: no baseline at $BASELINE; skipping (create one with 'make bench-baseline')" >&2
  if [[ -n "${GITHUB_ACTIONS:-}" ]]; then
    echo "::warning file=$BASELINE::bench regression gate skipped: no baseline at $BASELINE (create one with 'make bench-baseline')"
  fi
  exit 0
fi

out=$(mktemp)
trap 'rm -f "$out" "$out.json"' EXIT

# The pinned benchmarks live in the repro root package (Q2_SSDC_K3_N1000,
# Q2_SSDCMC_K3_N1000_Y2, BatchQ2_Incremental, CleanSession_Loadbench) and
# internal/core (EngineBuild, Scan, Q1_MM_Engine — each with untruncated
# and truncated sub-benchmarks — and HypothesisCounts, CPClean's inner
# loop). CleanSession_Loadbench runs a whole clean-live session per
# iteration (seconds, not microseconds), so it runs on its own at 2x, the
# count `make bench-baseline` records it at.
go test -run XXX -bench "${MATCH//,/|}" -benchtime "$TIME" -count "$COUNT" . ./internal/core/ | tee "$out"
go test -run XXX -bench '^BenchmarkCleanSession_Loadbench$' -benchtime 2x -count "$COUNT" . | tee -a "$out"
go run ./internal/tools/benchjson -in "$out" -out "$out.json"
go run ./internal/tools/benchcompare \
  -baseline "$BASELINE" -current "$out.json" -pct "$PCT" -match "$MATCH,CleanSession_Loadbench"
