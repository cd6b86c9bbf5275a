#!/usr/bin/env bash
# bench_pairs.sh — alternating A/B pairs of one benchmark workload:
#
#   scripts/bench_pairs.sh <rev> <workload> <N> [seed]
#
# Builds the bench binary twice, once each: <rev> from a checkout that
# `git archive` writes to a temporary directory, and the working tree
# as it stands. Then runs N pairs of `bench -workload <workload>
# -seconds 10 -seed <seed>` (seed 1 by default), each invocation in the
# foreground: <rev> first in even pairs, the working tree first in odd
# ones. It fails if a bench process is still alive after any run. It
# prints each run's end-to-end metrics, each side's median and
# quartiles per metric, and in how many pairs the working tree read
# better (higher img_per_s, lower everything else).
set -euo pipefail
[ $# -ge 3 ] || { echo "usage: $0 <rev> <workload> <N> [seed]" >&2; exit 2; }
rev=$1 workload=$2 n=$3 seed=${4:-1}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/src" "$tmp/base" "$tmp/change"
git -C "$root" archive "$rev" | tar -x -C "$tmp/src"
(cd "$tmp/src" && go build -o "$tmp/base/bench" ./bench)
(cd "$root" && go build -o "$tmp/change/bench" ./bench)

run() { # side pair: one foreground invocation, its metrics appended to $tmp/runs
	local dir=$root out
	[ "$1" = base ] && dir=$tmp/src
	out=$(cd "$dir" && "$tmp/$1/bench" -workload "$workload" -seconds 10 -seed "$seed" | tail -n 1)
	if pgrep -x bench >/dev/null; then
		echo "bench_pairs: a bench process is still running after $1 run $2" >&2
		exit 1
	fi
	echo "$out" | grep -o '"[a-z_]*":{"value":[-0-9.e+]*' | sed 's/^"\([a-z_]*\)":{"value":/\1 /' |
		while read -r m v; do echo "$1 $2 $m $v"; done | tee -a "$tmp/runs"
}
for ((i = 0; i < n; i++)); do
	if ((i % 2 == 0)); then run base "$i"; run change "$i"; else run change "$i"; run base "$i"; fi
done

quantile() { # p: linear-interpolated quantile of the numbers on stdin
	sort -g | awk -v p="$1" '{a[NR - 1] = $1} END {x = p * (NR - 1); i = int(x); printf "%.6g", a[i] + (x - i) * (a[i + 1] - a[i])}'
}
echo
for m in $(awk '{print $3}' "$tmp/runs" | sort -u); do
	for side in base change; do
		vals=$(awk -v s="$side" -v m="$m" '$1 == s && $3 == m {print $4}' "$tmp/runs")
		printf '%-6s %-16s median %-10s [q1 %s, q3 %s]\n' "$side" "$m" "$(quantile 0.5 <<<"$vals")" \
			"$(quantile 0.25 <<<"$vals")" "$(quantile 0.75 <<<"$vals")"
	done
	awk -v m="$m" -v n="$n" '$3 == m {v[$1, $2] = $4}
		END {for (i = 0; i < n; i++) {d = v["change", i] - v["base", i]; if (m == "img_per_s") d = -d; w += d < 0}
		printf "%s: working tree better in %d of %d pairs\n\n", m, w, n}' "$tmp/runs"
done
