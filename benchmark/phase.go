package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"strconv"
	"time"
)

// A run is cut into phases of about a second. Each phase sets a fresh
// instance of the workload up, measures it and tears it down, and is
// scored by how much of it the hypervisor gave to someone else; an
// end-to-end metric is the median over the calm phases (report.conclude).
// The reason is the host: a shared VM loses anything from 1 % to 80 % of
// its processor time to its neighbours, in bursts that last seconds, and a
// burst shows in every wall-clock figure measured during it. A median over
// all of a run is a median over whatever share of the run was disturbed;
// the steal count tells the two kinds of phase apart without looking at
// the figures themselves. What the steal count does not show, the host's
// slower drift, each phase measures with the reference loop (reference.go)
// and files its CPU-bound figures scaled by.

// phasesPerRun is how many phases the measured seconds are divided into.
// Twenty one-second phases fit inside the calm stretches seen on this
// host (1–8 s) and leave a handful to take a median over when three
// quarters of the run is disturbed.
const phasesPerRun = 20

func phaseLength(seconds float64) time.Duration {
	return time.Duration(seconds / phasesPerRun * float64(time.Second))
}

// stolenTicks is the time the hypervisor ran something else while a
// processor of this machine had work to do, in clock ticks summed over
// processors, as the guest kernel counts it (the eighth figure of the
// first line of /proc/stat). 0 where the kernel does not say, which makes
// every phase equally calm.
func stolenTicks() int64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(raw, []byte("\n"))
	fields := bytes.Fields(line)
	if len(fields) < 9 || string(fields[0]) != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(string(fields[8]), 10, 64)
	if err != nil {
		return 0
	}
	return ticks
}

// phases runs a workload's phases. build is handed the instance of the
// phase before (torn down) so it can take over its result slots and
// input buffers: the timed set-ups then measure bringing the program up,
// not the allocator faulting fresh pages in (fresh slots made set-up swing
// 4–12 ms within one run).
type phases[T any] struct {
	r        *report
	prepare  func() // generates the phase's inputs, untimed; may be nil
	build    func(old T) (T, error)
	teardown func(T)                       // safe on an instance measure already stopped
	ref      func() (time.Duration, error) // referenceProcess, or a test's fake
	refRuns  int                           // reference processes a phase starts; the fastest counts
	last     T
}

func newPhases[T any](r *report, build func(old T) (T, error), teardown func(T)) *phases[T] {
	return &phases[T]{r: r, ref: referenceProcess, refRuns: 1, build: build, teardown: teardown}
}

// phaseValues is what one phase measured: per metric, the value and the
// number of samples behind it.
type phaseValues struct {
	vals map[string]sample
	slow float64 // the phase's reference time as a share of refNominal
	late bool
}

// put files a figure as measured: one a wall-clock spin sets.
func (v *phaseValues) put(name string, x float64, n int) {
	v.vals[name] = sample{v: x, raw: x, n: n}
}

// putTime files a CPU-bound time at reference speed (reference.go).
func (v *phaseValues) putTime(name string, x float64, n int) {
	v.vals[name] = sample{v: x / v.slow, raw: x, n: n}
}

// putRate files a CPU-bound rate at reference speed.
func (v *phaseValues) putRate(name string, x float64, n int) {
	v.vals[name] = sample{v: x * v.slow, raw: x, n: n}
}

// disturbed marks a phase whose load generator could not keep its
// schedule: it ranks behind every phase that did, whatever the steal
// count says.
func (v *phaseValues) disturbed() { v.late = true }

// do is one phase: the reference loop (reference.go), the inputs, set-up
// (a setup_s sample), measure, teardown. It returns what measure put, each
// value under the phase's steal.
func (p *phases[T]) do(measure func(inst T, v *phaseValues) error) (*phaseValues, error) {
	settle()
	stolen := stolenTicks()
	ref := time.Duration(math.MaxInt64)
	for i := 0; i < p.refRuns; i++ {
		t, err := p.ref()
		if err != nil {
			return nil, err
		}
		ref = min(ref, t)
	}
	v := &phaseValues{vals: map[string]sample{}, slow: float64(ref) / float64(refNominal)}
	if p.prepare != nil {
		p.prepare()
	}
	start := time.Now()
	inst, err := p.build(p.last)
	if err != nil {
		return nil, err
	}
	v.putTime("setup_s", time.Since(start).Seconds(), 1)
	err = measure(inst, v)
	p.teardown(inst)
	p.last = inst
	if err != nil {
		return nil, err
	}
	score := float64(stolenTicks() - stolen)
	if v.late {
		score = lateScore
	}
	fmt.Printf("  set-up %.3g s, reference %.0f us, %g ticks stolen\n", v.vals["setup_s"].raw, float64(ref.Nanoseconds())/1e3, score)
	for name, x := range v.vals {
		x.stolen = score
		v.vals[name] = x
	}
	return v, nil
}

// rehearse runs a phase whose figures are thrown away. Every workload
// starts with one: the first instance of a process grows the heap, faults
// the result slots in and starts the runtime's own threads, and its first
// third of a second ran up to ten times slower than any later phase.
func (p *phases[T]) rehearse(measure func(inst T, v *phaseValues) error) error {
	_, err := p.do(measure)
	return err
}

// run runs a phase and files what it measured in the report.
func (p *phases[T]) run(measure func(inst T, v *phaseValues) error) error {
	v, err := p.do(measure)
	if err != nil {
		return err
	}
	for name, x := range v.vals {
		p.r.phases[name] = append(p.r.phases[name], x)
	}
	return nil
}
