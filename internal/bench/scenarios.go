// The standardized scenario suite. Per-repetition workload sizes are
// fixed constants and must never shrink in "short" runs: short runs
// reduce repetitions, not work per repetition, so the deterministic
// metrics stay comparable to checked-in baselines.
package bench

import (
	"fmt"
	"runtime"

	"concord/internal/core"
	"concord/internal/cost"
	"concord/internal/server"
	"concord/internal/workload"
)

const (
	// Core scenario: one Concord sweep on the paper's YCSB bimodal
	// workload. Seeded, so the slowdown quantiles and SLO crossing are
	// bit-identical on every machine.
	coreRequests = 20000
	coreSeed     = 1
	coreQuantum  = 2 // µs
	coreWorkers  = 14
	// coreMidLoad is the load point the quantile metrics report; it
	// must be one of coreLoads.
	coreMidLoad = 180
)

// coreLoads is the swept offered load in kRps. The top points bracket
// Concord's SLO crossing so max_load_slo_krps interpolates inside the
// sweep instead of clamping to an endpoint.
var coreLoads = []float64{60, 120, 180, 240, 300}

// Scenarios returns the standard suite in run order.
func Scenarios() []Scenario {
	return []Scenario{CoreScenario(), LiveRegretScenario(), LiveAdaptiveScenario(), LiveMultitenantScenario()}
}

// ByName resolves a scenario by its report name.
func ByName(name string) (Scenario, error) {
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("bench: unknown scenario %q", name)
}

// CoreScenario benchmarks the discrete-event simulator: seeded tail
// quantiles and the SLO crossing, bit-identical on every machine, and
// the allocation count per simulated request, a property of the code
// path. How fast a host simulates is benchmark/'s sim_sweep workload.
func CoreScenario() Scenario {
	return Scenario{
		Name: "core",
		Describe: fmt.Sprintf("Concord simulator sweep, YCSB bimodal, %d requests/load, loads %v kRps, seed %d",
			coreRequests, coreLoads, coreSeed),
		Metrics: map[string]MetricMeta{
			"p50_slowdown":      {Unit: "x", Better: "lower"},
			"p99_slowdown":      {Unit: "x", Better: "lower"},
			"p999_slowdown":     {Unit: "x", Better: "lower"},
			"max_load_slo_krps": {Unit: "kreq/s", Better: "higher"},
			"allocs_per_req":    {Unit: "allocs", Better: "lower"},
		},
		Run: runCore,
	}
}

func runCore() (map[string]float64, error) {
	e := core.Experiment{
		Name:      "bench-core",
		Workload:  workload.YCSBBimodal(),
		QuantumUS: coreQuantum,
		Systems:   []server.Config{server.Concord(cost.Default(), coreWorkers, coreQuantum)},
		LoadsKRps: coreLoads,
		Params:    server.RunParams{Requests: coreRequests, Seed: coreSeed},
		Parallel:  runtime.GOMAXPROCS(0),
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := e.Run()
	runtime.ReadMemStats(&after)

	if len(res.Curves) != 1 {
		return nil, fmt.Errorf("bench: core expected 1 curve, got %d", len(res.Curves))
	}
	curve := res.Curves[0]
	total := 0
	var mid *struct{ p50, p99, p999 float64 }
	for _, p := range curve.Points {
		total += p.Samples
		if p.OfferedKRps == coreMidLoad {
			mid = &struct{ p50, p99, p999 float64 }{p.P50, p.P99, p.P999}
		}
	}
	if mid == nil {
		return nil, fmt.Errorf("bench: core sweep has no %d kRps point", coreMidLoad)
	}
	maxLoad, ok := res.MaxLoadKRps[curve.System]
	if !ok {
		return nil, fmt.Errorf("bench: %s never meets the SLO in %v", curve.System, coreLoads)
	}
	return map[string]float64{
		"p50_slowdown":      mid.p50,
		"p99_slowdown":      mid.p99,
		"p999_slowdown":     mid.p999,
		"max_load_slo_krps": maxLoad,
		"allocs_per_req":    float64(after.Mallocs-before.Mallocs) / float64(total),
	}, nil
}
