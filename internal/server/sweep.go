package server

import (
	"concord/internal/sim"
	"concord/internal/stats"
)

// SeedFor derives the RNG seed for one cell of an experiment grid from a
// base seed, the system's index within the experiment, and the load
// point's index within the sweep. It mixes all three through splitmix64
// (sim.Mix64), so distinct cells get decorrelated streams even across
// sweeps that share a base seed — unlike the previous affine derivation
// (seed*1_000_003+off+1), which collided whenever two sweeps' offsets
// differed by a multiple pattern of the base. The mapping is pinned by a
// golden test; changing it changes every simulated figure.
func SeedFor(base uint64, system, load int) uint64 {
	return sim.Mix64(base, uint64(system), uint64(load))
}

// Sweep runs one system across a list of offered loads (in kRps) and
// returns the slowdown-vs-load curve: the data behind one line in the
// paper's figures. The workload's Arrival field is overridden per load
// point with a Poisson process at that rate. Seeds derive from
// SeedFor(p.Seed, 0, i); multi-system experiments that want distinct
// per-system streams use SweepIndexed or internal/runner.
func Sweep(cfg Config, wl Workload, loadsKRps []float64, p RunParams) stats.Curve {
	return SweepIndexed(cfg, wl, loadsKRps, 0, p)
}

// SweepIndexed is Sweep with an explicit system index for seed
// derivation. It is the serial reference implementation: the parallel
// path (internal/runner) must produce bit-identical curves.
func SweepIndexed(cfg Config, wl Workload, loadsKRps []float64, system int, p RunParams) stats.Curve {
	curve := stats.Curve{System: cfg.Name, Points: make([]stats.Point, 0, len(loadsKRps))}
	for i, kRps := range loadsKRps {
		pt := RunAt(cfg, wl, kRps, withSeedFor(p, system, i))
		curve.Points = append(curve.Points, pt)
		// Past saturation every higher load is also saturated; keep
		// sweeping anyway so the curve shows the cliff, but the runs get
		// cheap because the queue-cap guard fires early.
	}
	return curve
}

// RunAt runs one system at one offered load and returns its point.
func RunAt(cfg Config, wl Workload, kRps float64, p RunParams) stats.Point {
	wl.Arrival = poissonAt(kRps)
	m := New(cfg, wl, p)
	res := m.Run()
	pt := res.Point
	pt.OfferedKRps = kRps
	return pt
}

func withSeedFor(p RunParams, system, load int) RunParams {
	p.Seed = SeedFor(p.Seed, system, load)
	return p
}
