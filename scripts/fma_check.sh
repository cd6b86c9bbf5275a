#!/usr/bin/env bash
# fma_check.sh — cross-builds ./... for arm64 and ppc64le, and fails,
# naming file:line, on any fused multiply-add in the assembly listing of
# the given package directories (default ./internal/tensor), tests
# included:
#
#   scripts/fma_check.sh [pkg-dir...]
#
# The Go spec lets a compiler fuse x*y + z into one rounding unless an
# explicit conversion intervenes, as in float32(x*y) + z. gc never fuses
# on amd64; on arm64 and ppc64le it does, and a fused site rounds
# differently from the same code on amd64, from the kernels' test
# oracles and from the AVX2 GEMM kernel. The listing is the compiler's
# own -S output, replayed from the build cache on a warm run.
set -euo pipefail
root=$(git rev-parse --show-toplevel)
cd "$root"
[ $# -gt 0 ] || set -- ./internal/tensor
mod=$(go list -m)
status=0
for arch in arm64 ppc64le; do
	GOARCH=$arch go build ./...
	for dir in "$@"; do
		pkg=$mod/${dir#./}
		# -S covers the package and its in-package tests; the listing is on stderr.
		sites=$(GOARCH=$arch go test -c -o /dev/null -gcflags="$pkg=-S" "$dir" 2>&1 |
			grep -E '[[:space:]]FN?M(ADD|SUB)[SD]?[[:space:]]' |
			sed -E "s|^.*\\($root/([^)]*)\\)[[:space:]]+([A-Z]+).*$|\\1 \\2|" | sort -u) || true
		if [ -n "$sites" ]; then
			echo "fma_check: $arch fuses multiply-adds in $dir (write float32(x*y) + z):" >&2
			sed "s/^/  $arch /" <<<"$sites" >&2
			status=1
		fi
	done
done
[ $status -eq 0 ] && echo "fma_check: no fused multiply-add on arm64 or ppc64le in $*"
exit $status
