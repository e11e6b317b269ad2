// Regression gating: compare two reports of the same scenario and flag
// metrics that moved in the worse direction beyond the noise band.
package bench

import (
	"fmt"
	"math"
	"sort"
)

// Delta is one metric's movement between an old and a new report.
type Delta struct {
	Metric string
	Old    Metric
	New    Metric
	// Rel is the relative change oriented so positive means worse
	// (a 20% p99 increase and a 20% throughput drop both read +0.20).
	Rel float64
}

func (d Delta) String() string {
	return fmt.Sprintf("%s: %.4g → %.4g %s (%+.1f%% worse-direction, ci95 ±%.3g → ±%.3g)",
		d.Metric, d.Old.Mean, d.New.Mean, d.New.Unit, d.Rel*100, d.Old.CI95, d.New.CI95)
}

// CompareResult classifies every metric shared by two reports.
type CompareResult struct {
	Scenario string
	// OldGo/NewGo record the toolchains; a mismatch makes allocation
	// counts incomparable, so the caller should surface it.
	OldGo, NewGo string
	// Regressions moved worse beyond the noise band: relative change
	// past the threshold AND confidence intervals disjoint in the
	// worse direction.
	Regressions []Delta
	// Improvements moved better by the same standard.
	Improvements []Delta
	// Stable counts metrics within the noise band.
	Stable int
	// Missing lists metrics present in only one report.
	Missing []string
}

// Compare gates new against old. A metric regresses only when both
// conditions hold: the worse-direction relative change exceeds
// threshold, and the 95% confidence intervals do not overlap (so pure
// run-to-run noise with honest error bars cannot fire the gate, and a
// deterministic metric fires on any change beyond threshold).
func Compare(old, new Report, threshold float64) (CompareResult, error) {
	if old.Scenario != new.Scenario {
		return CompareResult{}, fmt.Errorf("bench: comparing different scenarios %q vs %q", old.Scenario, new.Scenario)
	}
	if threshold < 0 {
		return CompareResult{}, fmt.Errorf("bench: negative threshold %g", threshold)
	}
	res := CompareResult{Scenario: old.Scenario, OldGo: old.Go, NewGo: new.Go}

	names := map[string]bool{}
	for n := range old.Metrics {
		names[n] = true
	}
	for n := range new.Metrics {
		names[n] = true
	}
	ordered := make([]string, 0, len(names))
	for n := range names {
		ordered = append(ordered, n)
	}
	sort.Strings(ordered)

	for _, name := range ordered {
		om, okO := old.Metrics[name]
		nm, okN := new.Metrics[name]
		if !okO || !okN {
			res.Missing = append(res.Missing, name)
			continue
		}
		d := Delta{Metric: name, Old: om, New: nm, Rel: worseRel(om, nm)}
		switch {
		case d.Rel > threshold && disjointWorse(om, nm):
			res.Regressions = append(res.Regressions, d)
		case d.Rel < -threshold && disjointWorse(nm, om):
			res.Improvements = append(res.Improvements, d)
		default:
			res.Stable++
		}
	}
	return res, nil
}

// worseRel returns the relative change oriented so positive is worse.
func worseRel(old, new Metric) float64 {
	if old.Mean == new.Mean {
		return 0
	}
	if old.Mean == 0 {
		// Direction is still meaningful; magnitude is not.
		if (new.Mean > 0) == (old.Better == "lower") {
			return math.Inf(1)
		}
		return math.Inf(-1)
	}
	rel := (new.Mean - old.Mean) / math.Abs(old.Mean)
	if old.Better == "higher" {
		rel = -rel
	}
	return rel
}

// disjointWorse reports whether new's CI95 interval lies strictly on
// the worse side of old's. For exactly-reproducible metrics both
// intervals are points, so any difference is disjoint.
func disjointWorse(old, new Metric) bool {
	if old.Better == "higher" {
		return new.Mean+new.CI95 < old.Mean-old.CI95
	}
	return new.Mean-new.CI95 > old.Mean+old.CI95
}
