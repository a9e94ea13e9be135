#!/bin/sh
# pair.sh REV WORKLOAD [N=10] [SEED=7] — `make pair REV=.. W=.. N=.. SEED=..`
#
# Alternating paired runs of the repo benchmark: REV's ./bench against the
# working tree's, N pairs of one workload, the side that runs first
# alternating, because the shared box drifts 1.3-2x for tens of seconds
# and only runs made back to back compare (docs/PERFORMANCE.md §1). REV is
# checked out into a throw-away directory with `git archive` (nothing is
# registered in .git, so an interrupted run leaves nothing behind), both
# binaries are built once, and each side runs in its own empty directory.
# Prints, for the five top-line figures of the report, each side's median
# [q1, q3], the ratio of the medians and in how many pairs the working tree
# won (ties count for neither).
#
# A stop-gap for ROADMAP item 1's `go run ./bench -pair <rev>`, which
# replaces this script in the next [benchmark] PR (bench/ is frozen for any
# PR that claims a gain, this one included).
set -eu
rev=${1:?usage: pair.sh REV WORKLOAD [N=10] [SEED=7]}
w=${2:?usage: pair.sh REV WORKLOAD [N=10] [SEED=7]}
n=${3:-10} seed=${4:-7}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/pair.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM
mkdir "$tmp/src" "$tmp/rev" "$tmp/tree"
git -C "$root" archive "$rev" | tar -x -C "$tmp/src"
(cd "$tmp/src" && go build -o "$tmp/rev/bench" ./bench)
(cd "$root" && go build -o "$tmp/tree/bench" ./bench)

run() { # run SIDE PAIR: one benchmark run; its top-line figures go to $tmp/runs
	(cd "$tmp/$1" && ./bench -workload "$w" -seed "$seed" 2>&1 >result.json) |
		awk -v side="$1" -v pair="$2" '$1 ~ /^(work_per_s|latency_(p50|p99|quiet)_us|setup_s)$/ { print side, pair, $1, $2 }' >>"$tmp/runs"
	grep -q '"correct":true,"attempted":[0-9]*,"failed":0,' "$tmp/$1/result.json" ||
		echo "pair.sh: pair $2, $1: not a clean run: $(cut -c1-60 "$tmp/$1/result.json")" >&2
}

i=1
while [ "$i" -le "$n" ]; do
	if [ $((i % 2)) -eq 1 ]; then run rev "$i" && run tree "$i"; else run tree "$i" && run rev "$i"; fi
	awk -v i="$i" '$2 == i { v[$1, $3] = $4 }
		END { printf "pair %d: latency_quiet_us %s -> %s, setup_s %s -> %s\n", i,
			v["rev", "latency_quiet_us"], v["tree", "latency_quiet_us"], v["rev", "setup_s"], v["tree", "setup_s"] }' "$tmp/runs" >&2
	i=$((i + 1))
done

echo "$w, seed $seed, $n pairs: $rev -> working tree"
awk '
function quantile(a, m, p,    h, lo) { # a[1..m] sorted; linear interpolation
	h = 1 + (m - 1) * p; lo = int(h)
	return lo >= m ? a[m] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
function summary(side, metric,    m, i, j, t, a) {
	m = cnt[side, metric]
	for (i = 1; i <= m; i++) a[i] = val[side, metric, i]
	for (i = 2; i <= m; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
	med[side] = quantile(a, m, 0.5)
	return sprintf("%.4g [%.4g, %.4g]", med[side], quantile(a, m, 0.25), quantile(a, m, 0.75))
}
{ k = ++cnt[$1, $3]; val[$1, $3, k] = $4; byPair[$1, $3, $2] = $4; if (!($3 in seen)) { seen[$3]; order[++nm] = $3 } }
END {
	for (x = 1; x <= nm; x++) {
		metric = order[x]; wins = 0
		for (p = 1; p <= pairs; p++) {
			r = byPair["rev", metric, p]; t = byPair["tree", metric, p]
			if (metric == "work_per_s" ? t > r : t < r) wins++
		}
		left = summary("rev", metric); right = summary("tree", metric)
		printf "  %-17s %s -> %s  ratio %.3f  wins %d/%d\n", metric, left, right, med["tree"] / med["rev"], wins, pairs
	}
}' pairs="$n" "$tmp/runs"
