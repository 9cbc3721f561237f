#!/usr/bin/env bash
# Paired benchmark regression gate. Builds the pinned benchmarks' test
# binaries at the merge base and at HEAD, runs them on this host in 10
# pairs, and fails when, for any pinned benchmark, HEAD is slower than the
# merge base by more than BENCH_REGRESSION_PCT percent (default 15) in at
# least 8 of the 10 pairs (a sign test; see internal/tools/benchcompare,
# which fails a benchmark that does not have exactly 10 pairs). Within a
# pair each pinned benchmark runs its base and HEAD samples back to back,
# base first in odd pairs and HEAD first in even ones, so the two sides of
# one comparison lie seconds apart rather than a whole pinned set apart.
# Both sides run on the same host within minutes of each other, so no
# baseline file is kept, and a host whose speed drifts between pairs slows
# both sides alike.
#
# The pinned set: internal/core's BenchmarkEngineBuild (every
# sub-benchmark) at 50x, BenchmarkHypothesisGroup/trunc/K3 (CPClean's
# hypothesis group pass over one stale point's full row group, ≈1.5 ms)
# at 400x,
# BenchmarkScan/supreme/trunc/K3 (the plain scan behind session queries
# and batch sweeps, ≈36 µs) at 20000x, and the root package's
# BenchmarkCleanSession_Loadbench (one clean-live session on loadbench's
# data) at 2x. A scan sample at 50x lasted ≈2 ms, and on a shared 2-core
# host samples that short swung by ±30% between runs of one binary, so
# identical code read >15% slower in 5-6 of 10 pairs; a ≈0.7 s sample
# averages the swings out.
#
# The HEAD side is built from the working tree (HEAD itself in CI). The
# merge base is that of HEAD and origin/main; when HEAD is itself on
# origin/main (a push to it), it is HEAD's first parent. The script prints
# the base's one-line log and how many commits lie between it and HEAD, and
# warns (under GitHub Actions as a ::warning:: annotation) when the base is
# not HEAD's first parent: a local origin/main ref that lags behind the
# branch's real parent makes the gate measure HEAD against an older commit.
# The one skip is a missing merge base (a shallow clone, an unrelated
# history, a root commit): the script warns the same way and exits 0. A
# benchmark only one side has (one HEAD adds) is reported, not compared.
set -euo pipefail
cd "$(dirname "$0")/.."

PCT=${BENCH_REGRESSION_PCT:-15}
PAIRS=10

warn() {
  echo "bench_compare: WARNING: $1" >&2
  if [[ -n "${GITHUB_ACTIONS:-}" ]]; then
    echo "::warning::bench regression gate: $1"
  fi
}

skip() {
  warn "skipped: $1"
  exit 0
}

head=$(git rev-parse HEAD)
base=$(git merge-base HEAD origin/main 2>/dev/null) || skip "no merge base of HEAD and origin/main"
if [[ "$base" == "$head" ]]; then
  base=$(git rev-parse -q --verify 'HEAD^') || skip "HEAD is on origin/main and has no parent"
fi
echo "bench_compare: merge base $base, HEAD $head, $PAIRS pairs"
echo "bench_compare: base is $(git log -1 --format='%h %s' "$base")"
echo "bench_compare: $(git rev-list --count "$base..HEAD") commit(s) from base to HEAD"
if [[ "$base" != "$(git rev-parse -q --verify 'HEAD^' || true)" ]]; then
  warn "merge base $base is not HEAD's parent; origin/main may be stale (git fetch origin main)"
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/src"
git archive "$base" | tar -x -C "$tmp/src"
# build DIR NAME compiles DIR's pinned test binaries into $tmp/NAME-*.test.
build() {
  (cd "$1" && go test -c -o "$tmp/$2-core.test" ./internal/core && go test -c -o "$tmp/$2-root.test" .)
}
build "$tmp/src" base
build "$PWD" head

# pins lists the pinned benchmarks, one per line: binary, -test.bench
# pattern, -test.benchtime, and whether to add -test.benchmem.
pins="core ^BenchmarkEngineBuild$ 50x mem
core ^BenchmarkHypothesisGroup$/^trunc$/^K3$ 400x -
core ^BenchmarkScan$/^supreme$/^trunc$/^K3$ 20000x -
root ^BenchmarkCleanSession_Loadbench$ 2x -"

# sample NAME BIN PATTERN BENCHTIME MEM appends one run of one pinned
# benchmark by NAME's binaries to $tmp/NAME.out.
sample() {
  local extra=()
  if [[ "$5" == mem ]]; then
    extra=(-test.benchmem)
  fi
  "$tmp/$1-$2.test" -test.run '^$' -test.bench "$3" -test.benchtime "$4" "${extra[@]}" >>"$tmp/$1.out" </dev/null
}
for ((i = 1; i <= PAIRS; i++)); do
  first=base second=head
  if ((i % 2 == 0)); then
    first=head second=base
  fi
  while read -r bin pattern benchtime mem; do
    sample "$first" "$bin" "$pattern" "$benchtime" "$mem"
    sample "$second" "$bin" "$pattern" "$benchtime" "$mem"
  done <<<"$pins"
  echo "bench_compare: pair $i of $PAIRS done"
done

go run ./internal/tools/benchjson -in "$tmp/base.out" -out "$tmp/base.json"
go run ./internal/tools/benchjson -in "$tmp/head.out" -out "$tmp/head.json"
go run ./internal/tools/benchcompare \
  -baseline "$tmp/base.json" -current "$tmp/head.json" -pct "$PCT"
