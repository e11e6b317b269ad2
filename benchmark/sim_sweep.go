package main

import (
	"fmt"
	"slices"
	"time"

	"concord/internal/core"
	"concord/internal/cost"
	"concord/internal/runner"
	"concord/internal/server"
	"concord/internal/stats"
	"concord/internal/workload"
)

// sim_sweep: the simulator that reproduces the paper's figures — the
// paper's three systems on the YCSB bimodal workload across five loads,
// 20 000 requests per (system, load) cell, cells run nproc at a time. No
// live-runtime code runs, so every live optimisation predicts no change
// here, and simulator or stats changes show only here. The simulated
// results are a function of the seed alone: they must be identical on
// every repetition, which doubles as the output check.
const (
	simWorkers   = 14
	simQuantumUS = 2
	simRequests  = 20000
	simWarmReqs  = 2000
	// simMidLoad is the load the per-system probes run at; one of simLoads.
	simMidLoad = 180
)

var simLoads = []float64{60, 120, 180, 240, 300}

// simBench is one set-up instance: the validated systems and the cell
// grid, seeded per cell the way core.Experiment seeds it.
type simBench struct {
	systems []server.Config
	wl      server.Workload
	params  server.RunParams
	specs   []runner.Spec
	pool    *runner.Runner
}

func buildSim(seed uint64) func(*simBench) (*simBench, error) {
	return func(*simBench) (*simBench, error) {
		b := &simBench{
			systems: core.DefaultSystems(cost.Default(), simWorkers, simQuantumUS),
			wl:      workload.YCSBBimodal().WL,
			params:  server.RunParams{Requests: simRequests, Seed: seed},
			pool:    runner.New(0),
		}
		for _, cfg := range b.systems {
			if err := cfg.Validate(); err != nil {
				return nil, err
			}
		}
		b.specs = runner.SweepSpecs(b.systems, b.wl, simLoads, b.params)
		// One short cell per system: code and allocator warm before the
		// first timed cell.
		warm := b.params
		warm.Requests = simWarmReqs
		for _, cfg := range b.systems {
			server.RunAt(cfg, b.wl, simMidLoad, warm)
		}
		return b, nil
	}
}

// simRep is one pass over the grid.
type simRep struct {
	points []stats.Point
	cells  []time.Duration // wall time of each cell, specs order
	starts []time.Duration // when each cell began, from the pass's start
	wall   time.Duration
}

func (b *simBench) rep() simRep {
	n := len(b.specs)
	rep := simRep{
		points: make([]stats.Point, n),
		cells:  make([]time.Duration, n),
		starts: make([]time.Duration, n),
	}
	settle()
	start := time.Now()
	b.pool.Do(n, func(i int) {
		s := b.specs[i]
		t0 := time.Now()
		rep.points[i] = server.RunAt(s.Cfg, s.WL, s.KRps, s.Params)
		rep.starts[i], rep.cells[i] = t0.Sub(start), time.Since(t0)
	})
	rep.wall = time.Since(start)
	return rep
}

// curves reassembles one curve per system, as runner.Sweeps does.
func (b *simBench) curves(points []stats.Point) []stats.Curve {
	out := make([]stats.Curve, len(b.systems))
	for si, cfg := range b.systems {
		out[si] = stats.Curve{System: cfg.Name, Points: points[si*len(simLoads) : (si+1)*len(simLoads)]}
	}
	return out
}

// concordMaxLoad is Concord's throughput at the paper's tail SLO.
func (b *simBench) concordMaxLoad(r *report, points []stats.Point) float64 {
	for _, c := range b.curves(points) {
		if c.System != "Concord" {
			continue
		}
		load, ok := c.MaxLoadUnderSLO(stats.DefaultSLOSlowdown)
		if !ok {
			r.violate("Concord never meets the %gx SLO on loads %v", stats.DefaultSLOSlowdown, simLoads)
		}
		return load
	}
	r.violate("no Concord curve among %d systems", len(b.systems))
	return 0
}

// same reports whether two passes simulated the same thing. Points hold
// NaNs where a run saturated, so they are compared as printed.
func same(a, b []stats.Point) bool { return fmt.Sprint(a) == fmt.Sprint(b) }

func runSimSweep(c config, r *report) error {
	if c.traced {
		return traceSimSweep(c, r)
	}
	ph := newPhases(r, buildSim(c.seed), func(*simBench) {})
	// A run has seven to nine passes, not twenty phases, so the median has
	// fewer reference times to average over; each pass takes the fastest of
	// three instead (0.2 s beside a pass of 2.5 s).
	ph.refRuns = 3

	// A phase is one whole pass over the grid. Throughput is a whole pass
	// over its wall time. A cell is one point of a paper figure and a
	// system's five cells are one curve: p50 is the pass's median cell, and
	// the tail is its slowest system's curve (the summed time of its cells)
	// — a figure is done when its slowest curve is. A single cell's time
	// swings ±30 % between identical passes, so the slowest single cell
	// would mostly report the host.
	var first []stats.Point
	var total time.Duration
	pass := func(b *simBench, v *phaseValues) error {
		rep := b.rep()
		if first == nil {
			first = rep.points
			b.concordMaxLoad(r, first)
		} else if !same(first, rep.points) {
			r.violate("a pass simulated different results from the first on the same seed")
		}
		var cells []float64
		for _, cell := range rep.cells {
			cells = append(cells, float64(cell.Nanoseconds())/1e3)
		}
		slowest := time.Duration(0)
		for si := range b.systems {
			curve := time.Duration(0)
			for _, cell := range rep.cells[si*len(simLoads) : (si+1)*len(simLoads)] {
				curve += cell
			}
			slowest = max(slowest, curve)
		}
		v.putRate("throughput_rps", float64(len(cells)*simRequests)/rep.wall.Seconds(), 1)
		v.putTime("p50_us", median(cells), len(cells))
		v.putTime("tail_us", float64(slowest.Nanoseconds())/1e3, 1)
		r.attempted += int64(len(cells))
		total += rep.wall
		fmt.Printf("pass: wall=%.3fs\n", rep.wall.Seconds())
		return nil
	}
	if err := ph.rehearse(pass); err != nil {
		return err
	}
	// Passes until the measured seconds are used (the rehearsal counts as
	// time spent, not as a figure), at least calmAnchor so there is a
	// median to take.
	for passes := 0; passes < calmAnchor || total+total/time.Duration(2*(passes+1)) < time.Duration(c.seconds*float64(time.Second)); passes++ {
		if err := ph.run(pass); err != nil {
			return err
		}
	}
	r.conclude("setup_s")
	r.conclude("throughput_rps")
	r.conclude("p50_us")
	r.conclude("tail_us")
	return nil
}

// traceSimSweep is the traced run: one pass with a span per cell, and
// one through core.Experiment, the API the CLI and figures use, which
// must simulate the same results.
func traceSimSweep(c config, r *report) error {
	b, err := buildSim(c.seed)(nil)
	if err != nil {
		return err
	}
	rep := b.rep()
	var busy time.Duration
	for i, s := range b.specs {
		c.spans.add(i, fmt.Sprintf("server.RunAt %s@%gk", s.Cfg.Name, s.KRps), "", rep.starts[i], rep.starts[i]+rep.cells[i])
		busy += rep.cells[i]
	}
	r.attempted = int64(len(b.specs))
	r.set("sim.max_load_slo_krps", b.concordMaxLoad(r, rep.points))
	r.set("sim.runner_busy_pct", 100*busy.Seconds()/(rep.wall.Seconds()*float64(b.pool.Workers())))
	r.timing("sim.cell_ms_max", float64(slices.Max(rep.cells).Microseconds())/1e3, len(rep.cells))

	res := core.Experiment{
		Name:      "benchmark-sim_sweep",
		Workload:  workload.YCSBBimodal(),
		QuantumUS: simQuantumUS,
		Workers:   simWorkers,
		LoadsKRps: simLoads,
		Params:    b.params,
	}.Run()
	var viaCore []stats.Point
	for _, curve := range res.Curves {
		viaCore = append(viaCore, curve.Points...)
	}
	if !same(rep.points, viaCore) {
		r.violate("core.Experiment simulated different results from the cell grid on the same seed")
	}
	return nil
}
