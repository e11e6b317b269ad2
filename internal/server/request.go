// Package server simulates a microsecond-scale RPC server built in the
// style of Shinjuku, Persephone, and Concord (§2.1's system model): one
// dispatcher thread that owns a central queue, n worker threads pinned to
// cores, and a configurable preemption mechanism, worker-queue bound
// (JBSQ(k), with k=1 being a synchronous single queue), and
// work-conserving dispatcher.
//
// The simulation is event-driven at CPU-cycle resolution. Every overhead
// the paper's §2 model names is charged explicitly: c_proc as a rate
// inflation on application work, c_notif on each observed preemption,
// c_switch on each context switch, and c_next on each synchronous
// dispatcher→worker handoff. The dispatcher is a serial resource: every
// enqueue, dispatch, preemption signal, and re-queue costs dispatcher
// cycles, so dispatcher saturation and late preemption signals emerge
// naturally rather than being modeled analytically.
package server

import (
	"concord/internal/policy"
	"concord/internal/sim"
)

// Request is one in-flight request in the simulated server.
type Request struct {
	ID    uint64
	Class string

	// ServiceUS is the un-instrumented service time in µs; slowdown is
	// measured against it (§5.1).
	ServiceUS float64

	// serviceCycles is ServiceUS in cycles (the slowdown denominator).
	serviceCycles sim.Cycles

	// remainingBase is the un-instrumented work left. Wall-clock execution
	// inflates it by the executing thread's instrumentation rate.
	remainingBase sim.Cycles

	// critWall is the wall-cycle length of the initial critical section
	// (lock held): preemption is deferred until it ends (§3.1's
	// safety-first preemption). Only the first execution segment can be
	// inside the critical section.
	critWall sim.Cycles

	Arrival     sim.Cycles
	FirstStart  sim.Cycles
	Done        sim.Cycles
	Preemptions int

	// started reports the request has executed at least one segment.
	started bool
	// onDispatcher marks requests the work-conserving dispatcher picked
	// up; they can never migrate to a worker (§3.3).
	onDispatcher bool
	// warmup marks requests in the discarded warmup window.
	warmup bool
	// epoch increments each time this Request object is recycled through
	// the machine's freelist; pending dispatcher ops carry the epoch they
	// were enqueued under so stale ops for a completed-and-reused request
	// are recognized and dropped (pointer identity alone is not enough
	// once objects are pooled).
	epoch uint32

	// hintCycles is the request's size estimate in cycles (0 = unhinted)
	// and useHint selects the estimated-size key space below — set only
	// under Config.HintedSRPT, so oracle SRPT costs nothing.
	hintCycles sim.Cycles
	useHint    bool
}

// RemainingCycles implements policy.Item. Oracle SRPT keys on the true
// un-instrumented work left; hinted SRPT (Config.HintedSRPT) keys on
// policy.HintedKey of the hint and the work executed so far.
func (r *Request) RemainingCycles() sim.Cycles {
	if !r.useHint {
		return r.remainingBase
	}
	return policy.HintedKey(r.hintCycles, r.serviceCycles-r.remainingBase)
}

// wallFor returns the wall-clock cycles needed to execute base work at
// an inflation rate of (1+overhead).
func wallFor(base sim.Cycles, overhead float64) sim.Cycles {
	w := sim.Cycles(float64(base) * (1 + overhead))
	if w < base {
		w = base
	}
	if w < 1 {
		w = 1
	}
	return w
}

// baseFor returns the un-instrumented work executed during wall cycles at
// an inflation rate of (1+overhead).
func baseFor(wall sim.Cycles, overhead float64) sim.Cycles {
	b := sim.Cycles(float64(wall) / (1 + overhead))
	if b < 0 {
		b = 0
	}
	return b
}
