// Package bench is the hermetic regression gate: it runs a small
// scenario suite whose every metric can be compared across machines —
// bit-identical simulator and shadow-replay quantities, and ratios whose
// numerator and denominator come from the same repetition on the same
// host — aggregates repetitions into mean ± CI95 per metric, and emits
// schema-versioned BENCH_<name>.json reports that Compare gates against.
//
// It produces no throughput or latency figure. Those are machine-bound
// and belong to the repo benchmark (benchmark/, BENCHMARK.json), which
// measures them open-loop over calm phases; allocation floors are
// deterministic counts and live in tier-1 (internal/live's
// TestSubmitFuncZeroAllocs, internal/netsrv's TestWireAllocsPerRequest).
package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
)

// Schema versions the report format. ReadFile refuses reports written
// by a different schema rather than guessing at field semantics. In
// schema 2 every metric is comparable across machines, so none carries
// a tag saying so, and the report records the host's core counts.
const Schema = 2

// MetricMeta describes a metric independent of any measured values.
type MetricMeta struct {
	// Unit labels the values ("req/s", "us", "x", "allocs").
	Unit string
	// Better is "higher" or "lower": the direction of improvement.
	Better string
}

// Metric is one aggregated measurement in a report.
type Metric struct {
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Mean   float64 `json:"mean"`
	// CI95 is the half-width of the 95% confidence interval on the
	// mean (Student-t); 0 when there is a single repetition or the
	// metric is exactly reproducible.
	CI95 float64 `json:"ci95"`
	// N is the number of measured repetitions aggregated.
	N int `json:"n"`
}

// Report is the persisted result of running one scenario.
type Report struct {
	Schema   int    `json:"schema"`
	Scenario string `json:"scenario"`
	Go       string `json:"go"`
	// NProc and GOMAXPROCS record the host the ratios were measured on:
	// a live ratio taken with one P is a different experiment from one
	// taken with two, and nothing else in the report would say so.
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Reps       int               `json:"reps"`
	Warmup     int               `json:"warmup"`
	Metrics    map[string]Metric `json:"metrics"`
}

// Scenario is one standardized benchmark: a fixed per-repetition
// workload whose size never varies (short runs reduce repetitions, not
// work per repetition, so deterministic metrics stay comparable to
// checked-in baselines).
type Scenario struct {
	Name     string
	Describe string
	// Metrics declares every metric a repetition produces. Run fails
	// on undeclared or missing metrics so reports can't silently drop
	// coverage.
	Metrics map[string]MetricMeta
	// Run executes one repetition and returns its samples.
	Run func() (map[string]float64, error)
}

// Run executes warmup discarded repetitions followed by reps measured
// ones and aggregates each metric into mean ± CI95. progress, when
// non-nil, receives one line per repetition.
func Run(s Scenario, warmup, reps int, progress func(string)) (Report, error) {
	if reps < 1 {
		return Report{}, fmt.Errorf("bench: reps must be ≥1, got %d", reps)
	}
	logf := func(format string, args ...any) {
		if progress != nil {
			progress(fmt.Sprintf(format, args...))
		}
	}
	for i := 0; i < warmup; i++ {
		logf("%s: warmup %d/%d", s.Name, i+1, warmup)
		if _, err := s.Run(); err != nil {
			return Report{}, fmt.Errorf("bench: %s warmup %d: %w", s.Name, i+1, err)
		}
	}
	samples := map[string][]float64{}
	for i := 0; i < reps; i++ {
		logf("%s: rep %d/%d", s.Name, i+1, reps)
		m, err := s.Run()
		if err != nil {
			return Report{}, fmt.Errorf("bench: %s rep %d: %w", s.Name, i+1, err)
		}
		for k, v := range m {
			if _, ok := s.Metrics[k]; !ok {
				return Report{}, fmt.Errorf("bench: scenario %s produced undeclared metric %q", s.Name, k)
			}
			samples[k] = append(samples[k], v)
		}
	}
	r := Report{
		Schema:     Schema,
		Scenario:   s.Name,
		Go:         runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Reps:       reps,
		Warmup:     warmup,
		Metrics:    map[string]Metric{},
	}
	for name, meta := range s.Metrics {
		vals := samples[name]
		if len(vals) != reps {
			return Report{}, fmt.Errorf("bench: scenario %s metric %q present in %d/%d reps", s.Name, name, len(vals), reps)
		}
		mean, ci := meanCI95(vals)
		r.Metrics[name] = Metric{Unit: meta.Unit, Better: meta.Better, Mean: mean, CI95: ci, N: len(vals)}
	}
	return r, nil
}

// tCrit95 holds two-sided 95% Student-t critical values indexed by
// degrees of freedom; beyond the table the normal 1.96 is close enough.
var tCrit95 = []float64{0,
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// meanCI95 returns the sample mean and the half-width of its 95%
// confidence interval. A single sample has an unknowable variance; its
// CI is reported as 0 and Compare's relative threshold carries the
// noise allowance alone.
func meanCI95(vals []float64) (mean, ci float64) {
	if len(vals) == 0 {
		return math.NaN(), 0
	}
	// Identical samples (deterministic metrics) short-circuit to the
	// exact value: summing then dividing would otherwise round the
	// mean off by an ulp and report a spurious ~1e-14 CI.
	identical := true
	for _, v := range vals {
		if v != vals[0] {
			identical = false
			break
		}
	}
	if identical {
		return vals[0], 0
	}
	n := float64(len(vals))
	for _, v := range vals {
		mean += v
	}
	mean /= n
	if len(vals) < 2 {
		return mean, 0
	}
	var ss float64
	for _, v := range vals {
		d := v - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / (n - 1))
	df := len(vals) - 1
	t := 1.96
	if df < len(tCrit95) {
		t = tCrit95[df]
	}
	return mean, t * sd / math.Sqrt(n)
}

// quantileSorted returns the q-quantile (q in [0,1]) of an ascending
// slice by linear interpolation; NaN when empty.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// WriteFile persists the report as indented JSON (stable key order, so
// re-generated baselines diff cleanly).
func (r Report) WriteFile(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadFile loads a report and validates its schema version.
func ReadFile(path string) (Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return Report{}, fmt.Errorf("bench: %s: %w", path, err)
	}
	if r.Schema != Schema {
		return Report{}, fmt.Errorf("bench: %s has schema %d, this tool reads schema %d; regenerate it (make bench-json)", path, r.Schema, Schema)
	}
	if r.Scenario == "" {
		return Report{}, fmt.Errorf("bench: %s has no scenario name", path)
	}
	return r, nil
}

// MetricNames returns the report's metric names sorted for stable
// iteration.
func (r Report) MetricNames() []string {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
