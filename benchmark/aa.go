package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// A/A check: the same binary measured as if it were two commits. Each
// side gets n untraced runs of every workload, one process per run as
// the driver does it, with seeds seed..seed+n-1 on both sides and the
// sides alternating so a drifting host disturbs both alike. For every
// end-to-end metric it prints each side's median and spread (distance
// between the quartiles over the median) and the gap between the two
// medians in the direction that counts as worse. A bound in
// BENCHMARK.json should be at least twice the gap and three times the
// spread seen here.

// quartiles are the first and third quartile as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive method),
// which is what the driver uses.
func quartiles(values []float64) (q1, q3 float64) {
	s := slices.Clone(values)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		pos := i * (n + 1)
		j, delta := pos/4, pos%4
		j = min(max(j, 1), n-1)
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(values []float64) float64 {
	q1, q3 := quartiles(values)
	return (q3 - q1) / median(values)
}

// worseBy is by how much of a's median b's median is worse, given which
// direction is better; negative when b is better.
func worseBy(a, b float64, better string) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runSelf runs this binary once, untraced, and returns the metrics of the
// result line.
func runSelf(specPath, name string, seed uint64, seconds float64) (map[string]float64, error) {
	cmd := exec.Command(os.Args[0],
		"-spec", specPath,
		"-workload", name,
		"-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w\n%s", name, seed, err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res struct {
		Correct bool
		Failed  int64
		Metrics map[string]metricValue
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", name, seed, err)
	}
	if !res.Correct || res.Failed != 0 {
		return nil, fmt.Errorf("%s seed %d: correct=%v failed=%d", name, seed, res.Correct, res.Failed)
	}
	m := map[string]float64{}
	for name, v := range res.Metrics {
		m[name] = v.Value
	}
	return m, nil
}

func runAA(spec *benchSpec, specPath string, n int, seed uint64, seconds float64) error {
	worst := map[string]float64{} // per metric: the bound this check asks for
	for _, w := range workloads {
		var sides [2]map[string][]float64
		sides[0], sides[1] = map[string][]float64{}, map[string][]float64{}
		for i := 0; i < n; i++ {
			for k := 0; k < 2; k++ {
				side := (i + k) % 2 // alternate which side runs first
				m, err := runSelf(specPath, w.name, seed+uint64(i), seconds)
				if err != nil {
					return err
				}
				for name, v := range m {
					sides[side][name] = append(sides[side][name], v)
				}
				fmt.Fprintf(os.Stderr, "aa: %s seed %d side %c done\n", w.name, seed+uint64(i), 'A'+side)
			}
		}
		fmt.Printf("%s (n=%d per side)\n", w.name, n)
		fmt.Printf("  %-16s %14s %8s %14s %8s %8s %8s\n", "metric", "median A", "spread", "median B", "spread", "gap", "bound")
		for _, m := range spec.EndToEnd {
			a, b := sides[0][m.Name], sides[1][m.Name]
			gap := worseBy(median(a), median(b), m.Better)
			fmt.Printf("  %-16s %14.4f %7.1f%% %14.4f %7.1f%% %+7.1f%% %7.0f%%\n",
				m.Name, median(a), 100*spread(a), median(b), 100*spread(b), 100*gap, 100*m.Bound)
			need := 2 * math.Abs(gap)
			if m.Name != "setup_s" { // the driver holds set-up time to its medians only
				need = max(need, 3*spread(a), 3*spread(b))
			}
			worst[m.Name] = max(worst[m.Name], need)
		}
	}
	fmt.Println("bounds this check asks for (twice the gap, three times the spread, worst workload):")
	for _, m := range spec.EndToEnd {
		verdict := "ok"
		if worst[m.Name] > m.Bound {
			verdict = "BENCHMARK.json is tighter than this host's noise"
		}
		fmt.Printf("  %-16s needs %5.1f%%, has %3.0f%%: %s\n", m.Name, 100*worst[m.Name], 100*m.Bound, verdict)
	}
	return nil
}
