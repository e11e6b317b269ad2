package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
)

// metricSpec is one metric of BENCHMARK.json. The file is the single list
// of names and units: the program reads it, prints exactly those names,
// and fails the run when a workload produced anything else.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// report is what one run of one workload found.
type report struct {
	attempted  int64
	failed     int64
	violations []string
	metrics    map[string]float64
	// samples is the sample count behind each timing, printed beside it.
	samples map[string]int
	// phases holds, per metric, what each phase of the run measured.
	phases map[string][]sample
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, samples: map[string]int{}, phases: map[string][]sample{}}
}

// conclude sets a metric to its median over the run's calm phases.
func (r *report) conclude(name string) {
	r.concludeTail(name, 0)
}

// concludeTail is conclude for a tail percentile q. It says so when a
// calm phase had too few samples to support the percentile (fewer than
// minBeyond beyond it make it a handful of outliers). That is a note, not
// a failed check: the phases are sized to leave hundreds beyond it, and
// only a host that all but stopped gets a phase below that.
func (r *report) concludeTail(name string, q float64) {
	all := r.phases[name]
	kept := calm(all)
	var vals, raws []float64
	n, fewest := 0, math.MaxInt
	for _, x := range kept {
		vals, raws = append(vals, x.v), append(raws, x.raw)
		n, fewest = n+x.n, min(fewest, x.n)
	}
	fmt.Printf("%s: median over %d calm phases of %d; as measured %.6g\n", name, len(kept), len(all), median(raws))
	r.timing(name, median(vals), n)
	if supportedTail(fewest) < q {
		fmt.Printf("NOTE: %s is a p%g over as few as %d samples a phase: fewer than %d lie beyond it\n", name, 100*q, fewest, minBeyond)
	}
}

func (r *report) set(name string, v float64) { r.metrics[name] = v }

// timing records a metric together with the sample count it rests on.
func (r *report) timing(name string, v float64, n int) {
	r.metrics[name] = v
	r.samples[name] = n
}

// violate records an output check that failed; any violation makes the
// run incorrect and the exit code non-zero.
func (r *report) violate(format string, args ...any) {
	if len(r.violations) < 20 {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

// reconcile checks the produced metrics against the names BENCHMARK.json
// lists for this mode. A per-layer metric whose layer is not on the
// workload's path (its prefix is not in layers) reads 0: the layer did no
// work there, which is the prediction the README makes for it.
func (r *report) reconcile(want []metricSpec, layers []string, traced bool) {
	named := map[string]bool{}
	for _, m := range want {
		named[m.Name] = true
		if _, ok := r.metrics[m.Name]; ok {
			continue
		}
		onPath := !traced
		for _, p := range layers {
			if strings.HasPrefix(m.Name, p) {
				onPath = true
			}
		}
		if onPath {
			r.violate("metric %s is named in BENCHMARK.json but was not measured", m.Name)
		}
		r.metrics[m.Name] = 0
	}
	for name := range r.metrics {
		if !named[name] {
			r.violate("metric %s was measured but BENCHMARK.json does not name it", name)
			delete(r.metrics, name)
		}
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes one line per metric, the violations, and last the result
// object the driver reads.
func (r *report) print(want []metricSpec) {
	for _, m := range want {
		line := fmt.Sprintf("%-32s %14.6g %s", m.Name, r.metrics[m.Name], m.Unit)
		if n, ok := r.samples[m.Name]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Println(line)
	}
	for _, v := range r.violations {
		fmt.Println("VIOLATION:", v)
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{
		Correct:   len(r.violations) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range want {
		out.Metrics[m.Name] = metricValue{r.metrics[m.Name], m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		// A NaN or Inf metric: a measurement that produced no number is a
		// failed run, not a value to report.
		fmt.Fprintln(os.Stderr, "benchmark: cannot encode result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// hostInfo is recorded with every run: the checked-in BENCH_*.json
// baselines never said how many cores produced them.
func hostInfo(seed uint64) string {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d go=%s kernel=%s seed=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernel, seed)
}
