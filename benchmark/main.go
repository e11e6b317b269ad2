// Command benchmark is the repository's benchmark: four workloads, each
// reporting the end-to-end metrics BENCHMARK.json names (untraced) or the
// per-layer ledger (traced), with the output checks built in. README.md
// says why each workload and metric exists and what should move what.
//
// It is its own module so that it builds from its own directory and no
// tier-1 command picks it up; run it from the repository root through
// run.sh, which is the command BENCHMARK.json names.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"
)

// config is what one run is asked to do.
type config struct {
	seed    uint64
	seconds float64 // measured time; phases are fractions of it
	traced  bool
	spans   *spanLog // where a traced run keeps its spans; nil untraced
}

// workloadSpec is one of the four input sets. layers lists the per-layer
// metric prefixes its traced run measures itself; the layer probes and
// host checks (probes.go) run on every traced run.
type workloadSpec struct {
	name   string
	layers []string
	run    func(c config, r *report) error
}

var workloads = []workloadSpec{
	{"dispatch_null", []string{"live.", "obs.tracer_overhead_pct"}, runDispatchNull},
	{"bimodal_open", layers(liveBreakdown, liveStats, liveDepths,
		[]string{"live.submit_call_ns_p50", "gen.", "open.", "obs.tracer_overhead_pct"}), runBimodalOpen},
	{"kv_wire", layers(liveBreakdown, liveStats,
		[]string{"netsrv.", "wire.", "obs.tracer_overhead_pct"}), runKVWire},
	{"sim_sweep", []string{"sim."}, runSimSweep},
}

// Groups of live.* metrics, by where a traced run reads them: Breakdown
// of a traced response, Server.Stats, Server.Depths.
var (
	liveBreakdown = []string{"live.handoff_", "live.queue_", "live.service_", "live.preempted_", "live.overhead_"}
	liveStats     = []string{"live.preemptions_per_long", "live.dispatcher_run_pct", "live.rejected", "live.expired"}
	liveDepths    = []string{"live.central_depth_mean", "live.submit_depth_max"}
)

func layers(groups ...[]string) []string {
	var out []string
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// probeLayers are measured by runProbes on every traced run.
var probeLayers = []string{"policy.", "proto.", "kv.", "obs.sketch_observe_ns", "obs.tail_observe_ns", "server.", "host."}

func main() {
	if len(os.Args) == 2 && os.Args[1] == referenceFlag {
		fmt.Println(reference(runtime.GOMAXPROCS(0)).Nanoseconds())
		return
	}
	name := flag.String("workload", "", "workload to run: "+strings.Join(names(), ", "))
	seed := flag.Uint64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 0, "seconds to measure (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes benchmark/out/trace-<workload>.json")
	aa := flag.Int("aa", 0, "A/A check: run every workload N times per side and print the gap between the two sets")
	specPath := flag.String("spec", "BENCHMARK.json", "path of BENCHMARK.json")
	outDir := flag.String("out", "benchmark/out", "directory for trace files")
	flag.Parse()

	spec, err := loadSpec(*specPath)
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	var listed []string
	for _, w := range spec.Workloads {
		listed = append(listed, w.Name)
	}
	if !slices.Equal(listed, names()) {
		fatal(fmt.Errorf("%s lists workloads %v, the program has %v", *specPath, listed, names()))
	}
	if *aa > 0 {
		if err := runAA(spec, *specPath, *aa, *seed, *seconds); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := lookup(*name)
	if !ok {
		fatal(fmt.Errorf("unknown -workload %q (have %s)", *name, strings.Join(names(), ", ")))
	}
	c := config{seed: *seed, seconds: *seconds, traced: *trace != 0}
	r, err := runOnce(spec, w, c, *outDir)
	if err != nil {
		fatal(err)
	}
	if len(r.violations) > 0 {
		os.Exit(1)
	}
}

// runOnce runs one workload in one mode, checks the metric names against
// BENCHMARK.json and prints the result.
func runOnce(spec *benchSpec, w workloadSpec, c config, outDir string) (*report, error) {
	fmt.Println(hostInfo(c.seed))
	fmt.Printf("workload=%s seconds=%g traced=%v\n", w.name, c.seconds, c.traced)
	r := newReport()
	start := time.Now()
	if c.traced {
		c.spans = newSpanLog()
		probeHost(r, time.Second) // before anything else runs: the host alone
	}
	if err := w.run(c, r); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	want, layers := spec.EndToEnd, []string(nil)
	if c.traced {
		runProbes(c, r)
		want, layers = spec.PerLayer, append(append(layers, w.layers...), probeLayers...)
		if err := c.spans.write(outDir, w.name); err != nil {
			return nil, err
		}
	}
	r.reconcile(want, layers, c.traced)
	if r.attempted < 1 {
		r.violate("no operation was attempted")
	}
	fmt.Printf("wall=%.1fs\n", time.Since(start).Seconds())
	r.print(want)
	return r, nil
}

func lookup(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

func names() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// settle ends a phase: whatever the previous phase left for the
// collector is collected now, so the next phase's allocation counts and
// pauses are its own.
func settle() {
	runtime.GC()
}
