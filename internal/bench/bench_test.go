package bench

import (
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func approx(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %g, want %g (±%g)", what, got, want, tol)
	}
}

func TestMeanCI95(t *testing.T) {
	mean, ci := meanCI95([]float64{1, 2, 3, 4, 5})
	approx(t, mean, 3, 1e-12, "mean")
	// sd = sqrt(2.5), t(df=4) = 2.776, ci = 2.776·sd/√5.
	approx(t, ci, 2.776*math.Sqrt(2.5)/math.Sqrt(5), 1e-9, "ci95")

	mean, ci = meanCI95([]float64{7})
	approx(t, mean, 7, 0, "single-sample mean")
	if ci != 0 {
		t.Errorf("single-sample ci = %g, want 0", ci)
	}

	_, ci = meanCI95([]float64{4, 4, 4})
	if ci != 0 {
		t.Errorf("constant-sample ci = %g, want 0", ci)
	}
}

func TestQuantileSorted(t *testing.T) {
	vals := []float64{10, 20, 30, 40, 50}
	approx(t, quantileSorted(vals, 0), 10, 0, "q0")
	approx(t, quantileSorted(vals, 1), 50, 0, "q1")
	approx(t, quantileSorted(vals, 0.5), 30, 1e-12, "q50")
	approx(t, quantileSorted(vals, 0.75), 40, 1e-12, "q75")
	if !math.IsNaN(quantileSorted(nil, 0.5)) {
		t.Error("empty quantile not NaN")
	}
}

// metric builds a lower-better metric for compare tests.
func metric(mean, ci float64) Metric {
	return Metric{Unit: "us", Better: "lower", Mean: mean, CI95: ci, N: 5}
}

func report(name string, metrics map[string]Metric) Report {
	return Report{Schema: Schema, Scenario: name, Go: "go1.24.0", NProc: 2, GOMAXPROCS: 2, Reps: 5, Warmup: 1, Metrics: metrics}
}

// TestCompareInjectedP99Regression is the acceptance scenario: a 20%
// p99 regression beyond the noise band must be flagged, and comparing a
// report against itself must pass.
func TestCompareInjectedP99Regression(t *testing.T) {
	old := report("live", map[string]Metric{"p99_us": metric(100, 2)})
	bad := report("live", map[string]Metric{"p99_us": metric(120, 2)})

	res, err := Compare(old, bad, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regressions) != 1 || res.Regressions[0].Metric != "p99_us" {
		t.Fatalf("regressions = %+v, want exactly p99_us", res.Regressions)
	}
	approx(t, res.Regressions[0].Rel, 0.20, 1e-12, "rel change")

	same, err := Compare(old, old, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(same.Regressions) != 0 || len(same.Improvements) != 0 || same.Stable != 1 {
		t.Fatalf("self-compare = %+v, want all stable", same)
	}
}

func TestCompareHigherBetterDirection(t *testing.T) {
	th := Metric{Unit: "req/s", Better: "higher", Mean: 1000, CI95: 10, N: 5}
	drop := th
	drop.Mean = 700
	res, err := Compare(
		report("live", map[string]Metric{"throughput_rps": th}),
		report("live", map[string]Metric{"throughput_rps": drop}),
		0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regressions) != 1 {
		t.Fatalf("throughput drop not flagged: %+v", res)
	}
	approx(t, res.Regressions[0].Rel, 0.30, 1e-12, "rel")

	// The reverse direction is an improvement, not a regression.
	res, err = Compare(
		report("live", map[string]Metric{"throughput_rps": drop}),
		report("live", map[string]Metric{"throughput_rps": th}),
		0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regressions) != 0 || len(res.Improvements) != 1 {
		t.Fatalf("throughput gain misclassified: %+v", res)
	}
}

// TestCompareNoiseBand: overlapping CIs or sub-threshold changes are
// stable, not regressions — both conditions must hold to flag.
func TestCompareNoiseBand(t *testing.T) {
	// 20% worse but CIs overlap: noisy measurement, no flag.
	res, err := Compare(
		report("live", map[string]Metric{"p99_us": metric(100, 15)}),
		report("live", map[string]Metric{"p99_us": metric(120, 15)}),
		0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regressions) != 0 || res.Stable != 1 {
		t.Fatalf("overlapping CIs flagged: %+v", res)
	}

	// Clearly separated but only 4% worse: within threshold, no flag.
	res, err = Compare(
		report("live", map[string]Metric{"p99_us": metric(100, 0.5)}),
		report("live", map[string]Metric{"p99_us": metric(104, 0.5)}),
		0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regressions) != 0 {
		t.Fatalf("sub-threshold change flagged: %+v", res)
	}
}

// TestCompareDeterministicMetric: bit-identical metrics with zero CI gate
// on any change beyond the threshold, and identical values never fire.
func TestCompareDeterministicMetric(t *testing.T) {
	det := Metric{Unit: "x", Better: "lower", Mean: 4.321, CI95: 0, N: 5}
	worse := det
	worse.Mean = 5.5
	res, err := Compare(
		report("core", map[string]Metric{"p999_slowdown": det}),
		report("core", map[string]Metric{"p999_slowdown": worse}),
		0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regressions) != 1 {
		t.Fatalf("deterministic regression not flagged: %+v", res)
	}

	res, err = Compare(
		report("core", map[string]Metric{"p999_slowdown": det}),
		report("core", map[string]Metric{"p999_slowdown": det}),
		0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regressions) != 0 || len(res.Improvements) != 0 {
		t.Fatalf("identical deterministic values flagged: %+v", res)
	}
}

func TestCompareMissingAndMismatch(t *testing.T) {
	res, err := Compare(
		report("live", map[string]Metric{"p99_us": metric(100, 1), "gone": metric(1, 0)}),
		report("live", map[string]Metric{"p99_us": metric(100, 1), "new": metric(2, 0)}),
		0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Missing) != 2 {
		t.Fatalf("missing = %v, want [gone new]", res.Missing)
	}

	if _, err := Compare(report("core", nil), report("live", nil), 0.10); err == nil {
		t.Error("scenario mismatch accepted")
	}
	if _, err := Compare(report("live", nil), report("live", nil), -1); err == nil {
		t.Error("negative threshold accepted")
	}
}

func TestReportRoundTrip(t *testing.T) {
	r := report("live", map[string]Metric{"p99_us": metric(123.4, 5.6)})
	path := filepath.Join(t.TempDir(), "BENCH_live.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, r) {
		t.Fatalf("round trip mismatch: %+v vs %+v", back, r)
	}

	// Reports of another schema — the checked-in baselines of an older
	// tool, or a future one — are refused, not misread, and the message
	// says what to do about it.
	for _, schema := range []int{1, Schema + 1} {
		other := r
		other.Schema = schema
		if err := other.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFile(path); err == nil || !strings.Contains(err.Error(), "regenerate") {
			t.Errorf("schema %d: err = %v, want a refusal that says to regenerate", schema, err)
		}
	}
}

// TestRunAggregation drives Run with a stub scenario: warmups are
// discarded, declared metrics aggregate, undeclared or missing metrics
// fail loudly.
func TestRunAggregation(t *testing.T) {
	calls := 0
	s := Scenario{
		Name:    "stub",
		Metrics: map[string]MetricMeta{"v": {Unit: "x", Better: "lower"}},
		Run: func() (map[string]float64, error) {
			calls++
			return map[string]float64{"v": float64(calls)}, nil
		},
	}
	var progress []string
	r, err := Run(s, 2, 3, func(m string) { progress = append(progress, m) })
	if err != nil {
		t.Fatal(err)
	}
	if calls != 5 {
		t.Fatalf("calls = %d, want 2 warmup + 3 reps", calls)
	}
	// Warmup values 1,2 discarded; measured 3,4,5.
	approx(t, r.Metrics["v"].Mean, 4, 1e-12, "mean over measured reps")
	if r.Metrics["v"].N != 3 || r.Reps != 3 || r.Warmup != 2 || r.Schema != Schema ||
		r.NProc != runtime.NumCPU() || r.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Fatalf("report header = %+v", r)
	}
	if len(progress) != 5 {
		t.Fatalf("progress lines = %d, want 5", len(progress))
	}

	s.Run = func() (map[string]float64, error) {
		return map[string]float64{"rogue": 1}, nil
	}
	if _, err := Run(s, 0, 1, nil); err == nil {
		t.Error("undeclared metric accepted")
	}
	s.Run = func() (map[string]float64, error) { return nil, nil }
	if _, err := Run(s, 0, 1, nil); err == nil {
		t.Error("missing metric accepted")
	}
	s.Run = func() (map[string]float64, error) { return nil, fmt.Errorf("boom") }
	if _, err := Run(s, 0, 1, nil); err == nil {
		t.Error("rep error swallowed")
	}
	if _, err := Run(s, 0, 0, nil); err == nil {
		t.Error("zero reps accepted")
	}
}

func TestByName(t *testing.T) {
	for _, want := range []string{"core", "live_regret", "live_adaptive", "live_multitenant"} {
		s, err := ByName(want)
		if err != nil || s.Name != want {
			t.Errorf("ByName(%q) = %v, %v", want, s.Name, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown scenario accepted")
	}
}
