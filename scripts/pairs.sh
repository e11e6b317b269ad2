#!/usr/bin/env bash
# Paired benchmark runs: a parent revision against the working tree, on
# one workload of BENCHMARK.json, interleaved.
#
#   bash scripts/pairs.sh [-r REV] [-n PAIRS] [-w WORKLOAD] [-s SECONDS]
#                         [-e FIRST_SEED] [-d DIR]
#
# Run from the repository root. It clones REV (default HEAD~1) from this
# repository into DIR/parent (default DIR: a new temporary directory) and
# runs PAIRS (default 10) pairs of `bash benchmark/run.sh --workload
# WORKLOAD --seed S --seconds SECONDS --trace 0`, one in the clone and one
# here, with the seed rising by one per pair from FIRST_SEED (default
# 101). Odd pairs run the parent first, even pairs the change, so neither
# side always runs on a warmer or cooler host. Each run's output is kept
# in DIR/logs.
#
# It then prints, for each end-to-end metric (throughput_rps higher is
# better; p50_us, tail_us and setup_s lower): every run, the change/parent
# ratio of each pair, each side's median and quartiles, the number of
# pairs the change won (ties count for neither), and whether the gap
# between the medians is wider than the parent's interquartile range.
# Quartiles interpolate linearly between the sorted runs.
set -euo pipefail

rev=HEAD~1 pairs=10 workload=dispatch_null seconds=20 seed0=101 dir=
while getopts r:n:w:s:e:d: opt; do
	case $opt in
	r) rev=$OPTARG ;;
	n) pairs=$OPTARG ;;
	w) workload=$OPTARG ;;
	s) seconds=$OPTARG ;;
	e) seed0=$OPTARG ;;
	d) dir=$OPTARG ;;
	*) sed -n '2,8p' "$0" >&2; exit 2 ;;
	esac
done
[ -f BENCHMARK.json ] && [ -f benchmark/run.sh ] || {
	echo "pairs.sh: run from the repository root" >&2
	exit 2
}
root=$PWD
dir=${dir:-$(mktemp -d)}
mkdir -p "$dir/logs"
sha=$(git rev-parse --verify "$rev^{commit}")
if [ ! -d "$dir/parent/.git" ]; then
	git clone --quiet --no-checkout "$root" "$dir/parent"
fi
git -C "$dir/parent" checkout --quiet --detach "$sha"
echo "parent $rev = $sha in $dir/parent; change = working tree $root" >&2

results=$dir/results.tsv
: >"$results"
run() { # side seed pair
	local where=$root log=$dir/logs/$1-$2.log
	[ "$1" = parent ] && where=$dir/parent
	(cd "$where" && bash benchmark/run.sh --workload "$workload" --seed "$2" \
		--seconds "$seconds" --trace 0) >"$log" 2>&1 || {
		echo "pairs.sh: $1 run, seed $2 failed; see $log" >&2
		exit 1
	}
	local json
	json=$(grep '^{' "$log" | tail -n 1)
	case $json in *'"correct":true'*) ;; *) echo "pairs.sh: $1 run, seed $2 not correct; see $log" >&2 ;; esac
	for m in throughput_rps p50_us tail_us setup_s; do
		v=$(printf '%s\n' "$json" | grep -o "\"$m\":{\"value\":[^,}]*" | sed 's/.*://')
		printf '%s\t%s\t%s\t%s\t%s\n' "$3" "$2" "$1" "$m" "$v" >>"$results"
	done
	echo "pair $3 seed $2 $1 done" >&2
}
for ((i = 1; i <= pairs; i++)); do
	seed=$((seed0 + i - 1))
	if ((i % 2)); then
		run parent "$seed" "$i"
		run change "$seed" "$i"
	else
		run change "$seed" "$i"
		run parent "$seed" "$i"
	fi
done

# quartiles FILE: the 25th, 50th and 75th percentiles of one number a line.
quartiles() {
	sort -g "$1" | awk '{ v[NR] = $1 }
	function q(p,   h, l) { h = (NR - 1) * p + 1; l = int(h); return v[l] + (h - l) * (v[l + 1 < NR ? l + 1 : NR] - v[l]) }
	END { printf "%.6g %.6g %.6g", q(0.25), q(0.5), q(0.75) }'
}

echo "workload $workload, $pairs pairs at $seconds s, seeds $seed0-$((seed0 + pairs - 1)), parent $sha"
for m in throughput_rps p50_us tail_us setup_s; do
	better=lower
	[ $m = throughput_rps ] && better=higher
	echo
	echo "$m ($better is better)"
	printf '  %-5s %-6s %-8s %-14s %-14s %s\n' pair seed first parent change change/parent
	awk -F'\t' -v m=$m -v better=$better '
		$4 == m { v[$1, $3] = $5; seed[$1] = $2; if (!(($1) in first)) first[$1] = $3; n = $1 > n ? $1 : n }
		END {
			for (i = 1; i <= n; i++) {
				p = v[i, "parent"]; c = v[i, "change"]
				printf "  %-5d %-6d %-8s %-14.6g %-14.6g %.3f\n", i, seed[i], first[i], p, c, c / p
				if ((better == "higher" && c > p) || (better == "lower" && c < p)) won++
			}
			printf "  change better in %d/%d pairs\n", won, n
		}' "$results"
	for side in parent change; do
		awk -F'\t' -v m=$m -v s=$side '$4 == m && $3 == s { print $5 }' "$results" >"$dir/$side.$m"
	done
	awk -F'\t' -v m=$m '$4 == m { v[$1, $3] = $5; n = $1 > n ? $1 : n }
		END { for (i = 1; i <= n; i++) print v[i, "change"] / v[i, "parent"] }' "$results" >"$dir/ratio.$m"
	read -r pq1 pmed pq3 <<<"$(quartiles "$dir/parent.$m")"
	read -r cq1 cmed cq3 <<<"$(quartiles "$dir/change.$m")"
	read -r _ rmed _ <<<"$(quartiles "$dir/ratio.$m")"
	awk -v pq1="$pq1" -v pmed="$pmed" -v pq3="$pq3" -v cq1="$cq1" -v cmed="$cmed" -v cq3="$cq3" -v rmed="$rmed" 'BEGIN {
		printf "  parent median %.6g [q1 %.6g, q3 %.6g], IQR %.6g\n", pmed, pq1, pq3, pq3 - pq1
		printf "  change median %.6g [q1 %.6g, q3 %.6g]\n", cmed, cq1, cq3
		gap = cmed - pmed
		if (gap < 0) gap = -gap
		verdict = "is within"
		if (gap > pq3 - pq1) verdict = "exceeds"
		printf "  median pair ratio %.3f; change/parent of medians %.3f; |gap| %.6g %s the parent IQR\n",
			rmed, cmed / pmed, gap, verdict
	}'
done
