#!/usr/bin/env bash
# Fails when the compiler fuses a multiply and an add on the answer path.
# A fused multiply-add rounds once where the source rounds twice, so an
# arm64 binary that fuses would answer a different last bit than an amd64
# one — breaking the bit-for-bit agreement between servers, followers and
# the golden answers. The source prevents fusion by rounding every product
# explicitly (float64(a*b)); this script proves it held by cross-compiling
# the answer-path packages for arm64 with -S (the local toolchain only, so
# it works offline) and searching the assembly for fused instructions.
#
# Run from anywhere: scripts/fma_check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

PKGS=(internal/knn internal/segtree internal/core internal/selection internal/cleaning)
FUSED='[[:space:]](FMADDD|FMSUBD|FNMADDD|FNMSUBD|FMADDS|FMSUBS|FNMADDS|FNMSUBS)[[:space:]]'

asm=$(mktemp)
trap 'rm -f "$asm"' EXIT

status=0
for p in "${PKGS[@]}"; do
  # -S prints the package's assembly (inlined callees included) on stderr;
  # a cached build replays it.
  GOARCH=arm64 go build -gcflags="repro/$p=-S" -o /dev/null "./$p" 2>"$asm"
  if ! grep -q 'STEXT' "$asm"; then
    echo "fma_check: no assembly listing for $p" >&2
    exit 1
  fi
  if grep -E "$FUSED" "$asm" >&2; then
    echo "fma_check: fused multiply-add in $p (round the product with float64(...))" >&2
    status=1
  fi
done
if [[ $status -eq 0 ]]; then
  echo "fma_check: no fused multiply-add in ${PKGS[*]}"
fi
exit $status
