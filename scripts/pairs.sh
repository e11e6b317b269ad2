#!/usr/bin/env bash
# Paired benchmark runs: a parent revision against the working tree, on
# one workload of BENCHMARK.json, interleaved.
#
#   bash scripts/pairs.sh [-r REV] [-n PAIRS] [-w WORKLOAD] [-s SECONDS]
#                         [-e FIRST_SEED] [-d DIR] [-t] [-a] [-m METRICS]
#
# Run from the repository root. It clones REV (default HEAD~1) from this
# repository into DIR/parent (default DIR: a new temporary directory) and
# runs PAIRS (default 10) pairs of `bash benchmark/run.sh --workload
# WORKLOAD --seed S --seconds SECONDS --trace 0`, one in the clone and one
# here, with the seed rising by one per pair from FIRST_SEED (default
# 101). -t runs them with --trace 1, which reports the per-layer metrics
# in place of the end-to-end ones. Odd pairs run the parent first, even
# pairs the change, so neither side always runs on a warmer or cooler
# host. Each run's output is kept in DIR/logs.
#
# -a adds an A/A arm: a second clone of REV, DIR/aa, runs on the same
# seeds as a third side, the order of the three rotating by one each
# pair (parent, change, aa; then change, aa, parent; ...). Its summary,
# printed after the change's in the same form, is aa against the parent:
# what identical code reads as a difference on this host and workload,
# to set beside the change's.
#
# It then prints, for each metric in METRICS (comma-separated names from
# BENCHMARK.json; default the four end-to-end ones, throughput_rps,
# p50_us, tail_us and setup_s, so name per-layer ones with -t): every
# run, the change/parent ratio of each pair, each side's median and
# quartiles, the number of pairs the change won (by the metric's
# "better" direction in BENCHMARK.json; ties count for neither), and
# whether the gap between the medians is wider than the parent's
# interquartile range. Quartiles interpolate linearly between the sorted
# runs. Under each table it prints a sign test over the decisive pairs
# (the pairs whose two runs differ; two-sided p under a fair coin) and
# an interval for the median pair ratio taken from the order statistics
# of the ratios: the narrowest [r(l), r(n+1-l)] whose coverage,
# 1 - 2 P(Binomial(n, 1/2) <= l-1), is at least 95 % (97.85 % at n = 10,
# l = 2), or the whole range, with its smaller coverage, when n is too
# small for that. It needs no assumption about the ratios' distribution.
# A ratio means nothing when a run reads 0 or below (a difference such
# as obs.tracer_overhead_pct can), so then no interval is printed.
#
# Last comes one verdict a metric: "resolved" when the change's interval
# excludes 1 and, with -a, the A/A arm's interval includes 1 (identical
# code reads as no difference on this host); otherwise "unresolved",
# with the reason.
set -euo pipefail

rev=HEAD~1 pairs=10 workload=dispatch_null seconds=20 seed0=101 dir= trace=0
metrics=throughput_rps,p50_us,tail_us,setup_s sides="parent change"
while getopts r:n:w:s:e:d:tam: opt; do
	case $opt in
	r) rev=$OPTARG ;;
	n) pairs=$OPTARG ;;
	w) workload=$OPTARG ;;
	s) seconds=$OPTARG ;;
	e) seed0=$OPTARG ;;
	d) dir=$OPTARG ;;
	t) trace=1 ;;
	a) sides="parent change aa" ;;
	m) metrics=$OPTARG ;;
	*) sed -n '2,8p' "$0" >&2; exit 2 ;;
	esac
done
[ -f BENCHMARK.json ] && [ -f benchmark/run.sh ] || {
	echo "pairs.sh: run from the repository root" >&2
	exit 2
}
# better METRIC: the metric's "better" direction in BENCHMARK.json, whose
# metric objects put "name" before "better".
better() {
	awk -v m="$1" '$1 == "\"name\":" { name = $2; gsub(/[",]/, "", name) }
		$1 == "\"better\":" && name == m { b = $2; gsub(/[",]/, "", b); print b; exit }' BENCHMARK.json
}
metrics=${metrics//,/ }
for m in $metrics; do
	[ -n "$(better "$m")" ] || {
		echo "pairs.sh: metric $m is not in BENCHMARK.json" >&2
		exit 2
	}
done
root=$PWD
dir=${dir:-$(mktemp -d)}
mkdir -p "$dir/logs"
sha=$(git rev-parse --verify "$rev^{commit}")
for clone in parent aa; do
	[[ " $sides " == *" $clone "* ]] || continue
	if [ ! -d "$dir/$clone/.git" ]; then
		git clone --quiet --no-checkout "$root" "$dir/$clone"
	fi
	git -C "$dir/$clone" checkout --quiet --detach "$sha"
done
echo "parent $rev = $sha in $dir/parent; change = working tree $root" >&2
[ "$sides" = "parent change" ] || echo "A/A arm: aa = $sha again, in $dir/aa" >&2

results=$dir/results.tsv
: >"$results"
run() { # side seed pair
	local where=$root log=$dir/logs/$1-$2.log
	[ "$1" = change ] || where=$dir/$1
	(cd "$where" && bash benchmark/run.sh --workload "$workload" --seed "$2" \
		--seconds "$seconds" --trace "$trace") >"$log" 2>&1 || {
		echo "pairs.sh: $1 run, seed $2 failed; see $log" >&2
		exit 1
	}
	local json
	json=$(grep '^{' "$log" | tail -n 1)
	case $json in *'"correct":true'*) ;; *) echo "pairs.sh: $1 run, seed $2 not correct; see $log" >&2 ;; esac
	for m in $metrics; do
		v=$(printf '%s\n' "$json" | grep -o "\"$m\":{\"value\":[^,}]*" | sed 's/.*://') || true
		[ -n "$v" ] || {
			echo "pairs.sh: $1 run, seed $2 reports no $m (a traced run reports the per-layer metrics only, an untraced one the end-to-end ones); see $log" >&2
			exit 1
		}
		printf '%s\t%s\t%s\t%s\t%s\n' "$3" "$2" "$1" "$m" "$v" >>"$results"
	done
	echo "pair $3 seed $2 $1 done" >&2
}
read -ra side <<<"$sides"
for ((i = 1; i <= pairs; i++)); do
	seed=$((seed0 + i - 1))
	for ((k = 0; k < ${#side[@]}; k++)); do
		run "${side[(i - 1 + k) % ${#side[@]}]}" "$seed" "$i"
	done
done

# quartiles FILE: the 25th, 50th and 75th percentiles of one number a line.
quartiles() {
	sort -g "$1" | awk '{ v[NR] = $1 }
	function q(p,   h, l) { h = (NR - 1) * p + 1; l = int(h); return v[l] + (h - l) * (v[l + 1 < NR ? l + 1 : NR] - v[l]) }
	END { printf "%.6g %.6g %.6g", q(0.25), q(0.5), q(0.75) }'
}

# signci SIDE METRIC BETTER: for SIDE's pairs with the parent on METRIC,
# whose better direction is BETTER, "won decisive p lo hi coverage": the
# sign test over the decisive pairs and the order-statistic interval for
# the median pair ratio (see the header); lo and hi are nan when a run
# reads 0 or below.
signci() {
	awk -F'\t' -v m="$2" -v b="$1" '$4 == m { v[$1, $3] = $5; n = $1 > n ? $1 : n }
		END { for (i = 1; i <= n; i++) { p = v[i, "parent"]; c = v[i, b]; print (p > 0 && c > 0 ? c / p : "nan"), p, c } }' "$results" |
		sort -g | awk -v better="$3" '
	{ r[NR] = $1; if ($1 == "nan") bad++ }
	$2 != $3 { d++; if ((better == "higher") == ($3 > $2)) w++ }
	function cdf(n, k,   i, c, s) { # P(Binomial(n, 1/2) <= k)
		if (k < 0) return 0
		c = 1
		for (i = 0; i <= k && i <= n; i++) { s += c; c = c * (n - i) / (i + 1) }
		return s / 2 ^ n
	}
	END {
		n = NR; w += 0; d += 0
		p = 1
		if (d > 0) {
			p = 2 * cdf(d, w < d - w ? w : d - w)
			if (p > 1) p = 1
		}
		l = 1
		while (l + 1 <= n - l && 1 - 2 * cdf(n, l) >= 0.95) l++
		lo = sprintf("%.6g", r[l]); hi = sprintf("%.6g", r[n + 1 - l])
		if (bad) lo = hi = "nan"
		printf "%d %d %.3g %s %s %.6f\n", w, d, p, lo, hi, 1 - 2 * cdf(n, l - 1)
	}'
}

# summary SIDE: every metric's table, SIDE (change or aa) against the
# parent.
summary() {
	local b=$1 m s better pq1 pmed pq3 cq1 cmed cq3 rmed
	for m in $metrics; do
		better=$(better "$m")
		echo
		echo "$m ($better is better)"
		printf '  %-5s %-6s %-8s %-14s %-14s %s\n' pair seed first parent "$b" "$b/parent"
		awk -F'\t' -v m="$m" -v b="$b" -v better="$better" '
			$4 == m { v[$1, $3] = $5; seed[$1] = $2; if (!(($1) in first)) first[$1] = $3; n = $1 > n ? $1 : n }
			END {
				for (i = 1; i <= n; i++) {
					p = v[i, "parent"]; c = v[i, b]
					printf "  %-5d %-6d %-8s %-14.6g %-14.6g %.3f\n", i, seed[i], first[i], p, c, c / p
					if ((better == "higher" && c > p) || (better == "lower" && c < p)) won++
				}
				printf "  %s better in %d/%d pairs\n", b, won, n
			}' "$results"
		for s in parent "$b"; do
			awk -F'\t' -v m="$m" -v s="$s" '$4 == m && $3 == s { print $5 }' "$results" >"$dir/$s.$m"
		done
		awk -F'\t' -v m="$m" -v b="$b" '$4 == m { v[$1, $3] = $5; n = $1 > n ? $1 : n }
			END { for (i = 1; i <= n; i++) print v[i, b] / v[i, "parent"] }' "$results" >"$dir/ratio.$b.$m"
		read -r pq1 pmed pq3 <<<"$(quartiles "$dir/parent.$m")"
		read -r cq1 cmed cq3 <<<"$(quartiles "$dir/$b.$m")"
		read -r _ rmed _ <<<"$(quartiles "$dir/ratio.$b.$m")"
		awk -v b="$b" -v pq1="$pq1" -v pmed="$pmed" -v pq3="$pq3" -v cq1="$cq1" -v cmed="$cmed" -v cq3="$cq3" -v rmed="$rmed" 'BEGIN {
			printf "  parent median %.6g [q1 %.6g, q3 %.6g], IQR %.6g\n", pmed, pq1, pq3, pq3 - pq1
			printf "  %s median %.6g [q1 %.6g, q3 %.6g]\n", b, cmed, cq1, cq3
			gap = cmed - pmed
			if (gap < 0) gap = -gap
			verdict = "is within"
			if (gap > pq3 - pq1) verdict = "exceeds"
			printf "  median pair ratio %.3f; %s/parent of medians %.3f; |gap| %.6g %s the parent IQR\n",
				rmed, b, cmed / pmed, gap, verdict
		}'
		signci "$b" "$m" "$better" >"$dir/ci.$b.$m"
		read -r won decisive p lo hi cov <"$dir/ci.$b.$m"
		printf '  sign test: %s better in %d of %d decisive pairs, two-sided p %s\n' "$b" "$won" "$decisive" "$p"
		if [ "$lo" = nan ]; then
			echo "  no interval for the median pair ratio: a run reads 0 or below"
		else
			printf '  median pair ratio interval [%s, %s], coverage %.2f %%\n' "$lo" "$hi" "$(awk -v c="$cov" 'BEGIN { print 100 * c }')"
		fi
	done
}

# verdict: one line a metric, from the intervals summary left behind.
verdict() {
	local m better lo hi alo ahi
	echo
	echo "verdict (change against parent${1:+; A/A arm as the control})"
	for m in $metrics; do
		better=$(better "$m")
		read -r _ _ _ lo hi _ <"$dir/ci.change.$m"
		alo=1 ahi=1
		[ -z "$1" ] || read -r _ _ _ alo ahi _ <"$dir/ci.aa.$m"
		awk -v m="$m" -v better="$better" -v lo="$lo" -v hi="$hi" -v alo="$alo" -v ahi="$ahi" -v aa="$1" 'BEGIN {
			line = sprintf("  %-28s change [%.4g, %.4g]", m, lo, hi)
			if (aa != "") line = line sprintf(", aa [%.4g, %.4g]", alo, ahi)
			if (lo == "nan" || alo == "nan") v = "unresolved: a run reads 0 or below, so the ratio means nothing"
			else if (lo <= 1 && hi >= 1) v = "unresolved: the change'"'"'s interval includes 1"
			else if (alo > 1 || ahi < 1) v = "unresolved: the A/A interval excludes 1"
			else v = "resolved: change " (((lo > 1) == (better == "higher")) ? "better" : "worse")
			print line " -> " v
		}'
	done
}

echo "workload $workload, $pairs pairs at $seconds s, --trace $trace, seeds $seed0-$((seed0 + pairs - 1)), parent $sha"
summary change
if [ "$sides" != "parent change" ]; then
	echo
	echo "A/A arm: aa (a second clone of the parent) against the parent, same seeds"
	summary aa
	verdict aa
else
	verdict ""
fi
