package bench

import (
	"math"
	"testing"
)

// TestScenarioSuiteSmoke runs each standard scenario for one repetition
// and checks the shape of what comes back: every declared metric
// present, finite and positive, with a unit and a direction. This is the
// same code path concord-bench drives, so a scenario that stops
// producing a metric fails tier 1, not the bench job. How large a metric
// is, is for bench-smoke-compare, which has repetitions and intervals.
func TestScenarioSuiteSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size scenario repetitions; skipped in -short")
	}
	for _, s := range Scenarios() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			r, err := Run(s, 0, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Metrics) != len(s.Metrics) {
				t.Fatalf("got %d metrics, declared %d", len(r.Metrics), len(s.Metrics))
			}
			for name, m := range r.Metrics {
				if math.IsNaN(m.Mean) || math.IsInf(m.Mean, 0) || m.Mean <= 0 {
					t.Errorf("%s = %g, want finite and positive", name, m.Mean)
				}
				if m.Better != "higher" && m.Better != "lower" {
					t.Errorf("%s.Better = %q", name, m.Better)
				}
				if m.Unit == "" {
					t.Errorf("%s has no unit", name)
				}
			}
		})
	}
}

// TestCoreScenarioDeterministic: the simulator metrics must be
// bit-identical across repetitions — that is the contract that lets CI
// gate them against a baseline from another machine.
func TestCoreScenarioDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full simulator sweeps; skipped in -short")
	}
	a, err := runCore()
	if err != nil {
		t.Fatal(err)
	}
	b, err := runCore()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"p50_slowdown", "p99_slowdown", "p999_slowdown", "max_load_slo_krps"} {
		if a[name] != b[name] {
			t.Errorf("%s differs across reps: %v vs %v", name, a[name], b[name])
		}
	}
}
