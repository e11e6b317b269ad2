// concord-bench runs the hermetic scenario suite — bit-identical
// simulator quantities and same-repetition ratios, nothing that depends
// on how fast the host is — and gates regressions. Throughput and
// latency are measured by the repo benchmark (benchmark/run.sh).
//
// Run mode executes each selected scenario (warmup repetitions
// discarded, then N measured repetitions), aggregates every metric into
// mean ± CI95, and writes one schema-versioned BENCH_<scenario>.json
// per scenario:
//
//	concord-bench -reps 5 -warmup 1 -outdir .
//
// Compare mode gates a new report against an old one and exits
// non-zero when any metric moved in the worse direction beyond the
// noise band (relative change past -threshold AND 95% confidence
// intervals disjoint):
//
//	concord-bench -compare BENCH_core.json new/BENCH_core.json
//
// -short reduces repetitions only — never per-repetition workload
// sizes — so a short run remains comparable to the full-run baselines,
// just with wider confidence intervals on the live ratios.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"concord/internal/bench"
)

func main() {
	var (
		scenarios = flag.String("scenarios", "all", "comma-separated scenario names, or \"all\"")
		reps      = flag.Int("reps", 5, "measured repetitions per scenario")
		warmup    = flag.Int("warmup", 1, "discarded warmup repetitions per scenario")
		outdir    = flag.String("outdir", ".", "directory for BENCH_<scenario>.json reports")
		short     = flag.Bool("short", false, "cap repetitions at 2 and warmup at 1 (sizes unchanged)")
		compare   = flag.Bool("compare", false, "compare two reports: concord-bench -compare old.json new.json")
		threshold = flag.Float64("threshold", 0.10, "relative worse-direction change required to flag")
		list      = flag.Bool("list", false, "list scenarios and their metrics")
	)
	flag.Parse()

	if *list {
		for _, s := range bench.Scenarios() {
			fmt.Printf("%-6s %s\n", s.Name, s.Describe)
			for _, m := range scenarioMetricNames(s) {
				meta := s.Metrics[m]
				fmt.Printf("       %-18s %-7s %s-is-better\n", m, meta.Unit, meta.Better)
			}
		}
		return
	}

	if *compare {
		os.Exit(runCompare(flag.Args(), *threshold))
	}
	os.Exit(runSuite(*scenarios, *reps, *warmup, *outdir, *short))
}

func scenarioMetricNames(s bench.Scenario) []string {
	r := bench.Report{Metrics: map[string]bench.Metric{}}
	for name := range s.Metrics {
		r.Metrics[name] = bench.Metric{}
	}
	return r.MetricNames()
}

func runSuite(scenarios string, reps, warmup int, outdir string, short bool) int {
	if short {
		if reps > 2 {
			reps = 2
		}
		if warmup > 1 {
			warmup = 1
		}
	}
	var selected []bench.Scenario
	if scenarios == "all" {
		selected = bench.Scenarios()
	} else {
		for _, name := range strings.Split(scenarios, ",") {
			s, err := bench.ByName(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
			selected = append(selected, s)
		}
	}
	if err := os.MkdirAll(outdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	for _, s := range selected {
		r, err := bench.Run(s, warmup, reps, func(msg string) {
			fmt.Fprintln(os.Stderr, msg)
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		path := filepath.Join(outdir, "BENCH_"+s.Name+".json")
		if err := r.WriteFile(path); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		fmt.Printf("%s: %d reps (+%d warmup) → %s\n", s.Name, reps, warmup, path)
		for _, name := range r.MetricNames() {
			m := r.Metrics[name]
			fmt.Printf("  %-18s %12.4g ±%-10.3g %s\n", name, m.Mean, m.CI95, m.Unit)
		}
	}
	return 0
}

func runCompare(args []string, threshold float64) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: concord-bench -compare old.json new.json")
		return 2
	}
	old, err := bench.ReadFile(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	cur, err := bench.ReadFile(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	res, err := bench.Compare(old, cur, threshold)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	fmt.Printf("compare %s: %s vs %s (threshold %.0f%%)\n", res.Scenario, args[0], args[1], threshold*100)
	if res.OldGo != res.NewGo {
		fmt.Printf("  warning: toolchains differ (%s vs %s); allocation counts may shift\n", res.OldGo, res.NewGo)
	}
	for _, name := range res.Missing {
		fmt.Printf("  missing in one report: %s\n", name)
	}
	for _, d := range res.Improvements {
		fmt.Printf("  improved:   %s\n", d)
	}
	for _, d := range res.Regressions {
		fmt.Printf("  REGRESSION: %s\n", d)
	}
	fmt.Printf("  %d stable, %d improved, %d regressed\n", res.Stable, len(res.Improvements), len(res.Regressions))
	if len(res.Regressions) > 0 {
		return 1
	}
	return 0
}
