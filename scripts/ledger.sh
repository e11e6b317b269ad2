#!/usr/bin/env bash
# The placed path's cycle ledger: what each hop of an untraced placed Do
# costs, in nanoseconds and TSC ticks, beside the paper's cycle costs.
#
#   bash scripts/ledger.sh [-c COUNT] [-b BENCHTIME]
#
# Run from the repository root. It runs internal/live's BenchmarkLedger
# (one row per hop, and "whole", one caller's placed Do), BenchmarkPoll
# and BenchmarkDoTwoClients COUNT times (default 5) for BENCHTIME each
# (default 1s), and prints a markdown table of each row's median: ns and
# ticks per operation, and per request — a row counted as often as a
# request crosses that hop — then the hops' sum and its residual against
# the whole path, measured two ways: "whole", and one client's request in
# BenchmarkDoTwoClients (twice its ns/op when each client has a CPU).
# Poll's probe is not on the path (the zero-work handler never polls); it
# is listed for the paper's probe. Ticks are the TSC's, at the rate
# clock.go calibrated; where nanotime does not read the TSC they are "-".
# No row is asserted: the table is a record, regenerated, never retyped.
set -euo pipefail

count=5 benchtime=1s
while getopts c:b: opt; do
	case $opt in
	c) count=$OPTARG ;;
	b) benchtime=$OPTARG ;;
	*) sed -n '2,5p' "$0" >&2; exit 2 ;;
	esac
done
[ -f go.mod ] && [ -d internal/live ] || {
	echo "ledger.sh: run from the repository root" >&2
	exit 2
}

out=$(go test -run '^$' -bench '^Benchmark(Ledger|Poll|DoTwoClients)$' \
	-count "$count" -benchtime "$benchtime" ./internal/live)
goversion=$(go env GOVERSION)

awk -v count="$count" -v benchtime="$benchtime" -v gover="$goversion" '
function median(list,    a, n, i, j, t) {
	n = split(list, a, " ")
	for (i = 2; i <= n; i++)
		for (j = i; j > 1 && a[j-1] + 0 > a[j] + 0; j--) {
			t = a[j]; a[j] = a[j-1]; a[j-1] = t
		}
	if (n == 0) return ""
	return n % 2 ? a[(n+1)/2] : (a[n/2] + a[n/2+1]) / 2
}
function tk(v) { return v == "" ? "-" : sprintf("%.0f", v) }
function ns(v) { return sprintf("%.1f", v) }
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^Benchmark/ {
	name = $1
	if (match(name, /-[0-9]+$/)) {
		procs = substr(name, RSTART + 1)
		name = substr(name, 1, RSTART - 1)
	}
	sub(/^Benchmark/, "", name)
	for (i = 3; i < NF; i += 2) {
		if ($(i+1) == "ns/op") nsop[name] = nsop[name] " " $i
		if ($(i+1) == "ticks/op") ticksop[name] = ticksop[name] " " $i
	}
}
END {
	# key, what it times, crossings per request, the paper'"'"'s cost
	rows = 9
	split("Ledger/clock Ledger/home Ledger/place Ledger/newID Ledger/probes Ledger/handle Ledger/count Ledger/done Ledger/reset", key, " ")
	what[1] = "clock read: nanotime, an `RDTSC` mapped (arrival, end)"; per[1] = 2; paper[1] = "`rdtsc` ≈ 30"
	what[2] = "`home`: the caller'"'"'s processor index (`procPin` + `procUnpin`), the scan'"'"'s start"; per[2] = 1
	what[3] = "`place`: checks + compare-and-swap, slot release"; per[3] = 1; paper[3] = "c_next ≈ 400 (the hand-off it replaces)"
	what[4] = "`newID`: the id from the task'"'"'s block"; per[4] = 1
	what[5] = "`fill`'"'"'s payload probes (deadline, hint, class)"; per[5] = 1
	what[6] = "`Ctx` write + `handle` (`defer`, `Handler` call)"; per[6] = 1
	what[7] = "`finish`'"'"'s count (`classPlaced`)"; per[7] = 1
	what[8] = "`Response.Done` stamp"; per[8] = 1
	what[9] = "`reset`: the worker'"'"'s spare task'"'"'s state zeroed (`finish`)"; per[9] = 1
	hz = median(ticksop["Ledger/clock"]) / median(nsop["Ledger/clock"])
	printf "`bash scripts/ledger.sh -c %s -b %s`: %s, GOMAXPROCS %s, %s", count, benchtime, cpu, procs, gover
	if (ticksop["Ledger/clock"] != "") printf ", TSC %.3f GHz", hz
	printf "; medians of %s runs.\n\n", count
	print "| hop | ns/op | ticks/op | per request | ns/request | ticks/request | paper, cycles |"
	print "|---|---:|---:|---:|---:|---:|---|"
	sum = 0; sumt = 0; haveT = 1
	for (r = 1; r <= rows; r++) {
		n = median(nsop[key[r]]); t = median(ticksop[key[r]])
		if (n == "") { printf "ledger.sh: no result for %s\n", key[r] > "/dev/stderr"; exit 1 }
		if (t == "") haveT = 0
		sum += n * per[r]; sumt += t * per[r]
		printf "| %s | %s | %s | ×%d | %s | %s | %s |\n", what[r], ns(n), tk(t), per[r], ns(n * per[r]), (t == "" ? "-" : tk(t * per[r])), paper[r]
	}
	printf "| **sum of the hops** | | | | **%s** | **%s** | |\n", ns(sum), (haveT ? tk(sumt) : "-")
	wn = median(nsop["Ledger/whole"]); wt = median(ticksop["Ledger/whole"])
	clients = procs + 0 >= 2 ? 2 : 1
	dn = median(nsop["DoTwoClients"]) * clients; dt = median(ticksop["DoTwoClients"])
	if (dt != "") dt *= clients
	printf "| whole: one caller'"'"'s placed `Do` (`Ledger/whole`) | %s | %s | ×1 | %s | %s | |\n", ns(wn), tk(wt), ns(wn), tk(wt)
	printf "| residual against it | | | | %s (%.0f %%) | %s | |\n", ns(wn - sum), 100 * (wn - sum) / wn, (haveT && wt != "" ? tk(wt - sumt) : "-")
	printf "| whole: one client'"'"'s request in `DoTwoClients` (ns/op ×%d) | %s | %s | ×1 | %s | %s | |\n", clients, ns(dn / clients), (dt == "" ? "-" : tk(dt / clients)), ns(dn), (dt == "" ? "-" : tk(dt))
	printf "| residual against it | | | | %s (%.0f %%) | %s | |\n", ns(dn - sum), 100 * (dn - sum) / dn, (haveT && dt != "" ? tk(dt - sumt) : "-")
	pn = median(nsop["Poll/shipped"]); pt = median(ticksop["Poll/shipped"])
	printf "| not on the path: one `Poll` (`Poll/shipped`) | %s | %s | | | | probe ≈ 2 |\n", ns(pn), tk(pt)
}' <<<"$out"
