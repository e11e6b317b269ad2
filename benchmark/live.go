package main

import (
	"slices"
	"time"

	"concord/internal/live"
	"concord/internal/obs"
)

// The server under test, on every live workload: two workers, a 200 µs
// quantum, no thread pinning, and every other option at its default, so
// that a better default shows in the numbers.
const (
	liveWorkers = 2
	liveQuantum = 200 * time.Microsecond
)

func newLive(h live.Handler, tr *obs.Tracer) *live.Server {
	return live.New(h, live.Options{
		Workers:    liveWorkers,
		Quantum:    liveQuantum,
		PinThreads: false,
		Tracer:     tr,
	})
}

// newTracer is the tracer of a traced phase. Only Response.Breakdown is
// read, never the event rings, so the rings stay at their default size.
func newTracer() *obs.Tracer { return obs.NewTracer(liveWorkers, 0) }

// checkConservation is the lifecycle invariant every live workload ends
// on: after Stop every accepted request was answered, and every attempt
// was either accepted or refused.
func checkConservation(r *report, srv *live.Server, attempted int64) {
	st := srv.Stats()
	if st.Submitted != st.Completed {
		r.violate("after Stop submitted=%d but completed=%d", st.Submitted, st.Completed)
	}
	if int64(st.Submitted+st.Rejected) != attempted {
		r.violate("submitted=%d + rejected=%d != attempted=%d", st.Submitted, st.Rejected, attempted)
	}
}

// latencySummary reduces one phase's latencies (ns, any order; sorted in
// place) to the numbers reports quote, in µs.
type latencySummary struct {
	n                        int
	p50, p90, p95, p99, p999 float64
}

func summarize(ns []int64) latencySummary {
	if len(ns) == 0 {
		return latencySummary{} // a class a cut-short rung never offered
	}
	slices.Sort(ns)
	us := func(q float64) float64 { return quantileSorted(ns, q) / 1e3 }
	return latencySummary{
		n: len(ns), p50: us(0.5), p90: us(0.9), p95: us(0.95), p99: us(0.99), p999: us(0.999),
	}
}

// breakdowns collects Response.Breakdown components of a traced phase:
// one preallocated column per component, one row per request. Rows are
// addressed by request index, so completion callbacks running on
// different workers write different rows and need no lock.
type breakdowns struct {
	handoff, queue, service, preempted, overhead []int64
}

func newBreakdowns(rows int) *breakdowns {
	mk := func() []int64 { return make([]int64, rows) }
	return &breakdowns{mk(), mk(), mk(), mk(), mk()}
}

// put records the response of request i; a row beyond the preallocated
// ones is dropped rather than grown inside a timed loop.
func (b *breakdowns) put(i int, resp *live.Response) {
	bd := resp.Breakdown
	if bd == nil || i >= len(b.handoff) {
		return
	}
	b.handoff[i] = int64(bd.Handoff)
	b.queue[i] = int64(bd.Queue)
	b.service[i] = int64(bd.Service)
	b.preempted[i] = int64(bd.Preempted)
	b.overhead[i] = int64(resp.Latency - bd.Service)
}

// trim cuts the columns to the n rows the phase filled.
func (b *breakdowns) trim(n int) {
	n = min(n, len(b.handoff))
	b.handoff, b.queue, b.service = b.handoff[:n], b.queue[:n], b.service[:n]
	b.preempted, b.overhead = b.preempted[:n], b.overhead[:n]
}

func (b *breakdowns) merge(o *breakdowns) {
	b.handoff = append(b.handoff, o.handoff...)
	b.queue = append(b.queue, o.queue...)
	b.service = append(b.service, o.service...)
	b.preempted = append(b.preempted, o.preempted...)
	b.overhead = append(b.overhead, o.overhead...)
}

// report sets the live.* breakdown metrics. overhead is latency minus
// service: everything the runtime added to the handler's own time.
func (b *breakdowns) report(r *report) {
	n := len(b.handoff)
	q := func(col []int64, q float64) float64 {
		slices.Sort(col)
		return quantileSorted(col, q) / 1e3
	}
	r.timing("live.handoff_us_p50", q(b.handoff, 0.5), n)
	r.timing("live.handoff_us_p95", q(b.handoff, 0.95), n)
	r.timing("live.queue_us_p50", q(b.queue, 0.5), n)
	r.timing("live.queue_us_p95", q(b.queue, 0.95), n)
	r.timing("live.service_us_p50", q(b.service, 0.5), n)
	r.timing("live.preempted_us_p95", q(b.preempted, 0.95), n)
	r.timing("live.overhead_us_p50", q(b.overhead, 0.5), n)
}

// depthSampler reads Server.Depths from the load generator's own
// goroutine (a sampling goroutine would take a processor from the two the
// server has). Traced phases only: Depths allocates.
type depthSampler struct {
	samples    int
	centralSum int
	submitMax  int
}

func (d *depthSampler) sample(srv *live.Server) {
	dep := srv.Depths()
	d.samples++
	d.centralSum += dep.Central
	d.submitMax = max(d.submitMax, dep.Submit)
}

func (d *depthSampler) report(r *report) {
	mean := 0.0
	if d.samples > 0 {
		mean = float64(d.centralSum) / float64(d.samples)
	}
	r.set("live.central_depth_mean", mean)
	r.set("live.submit_depth_max", float64(d.submitMax))
}

// reportStats sets the live.* counters read from Server.Stats after a
// traced phase. longs is how many long requests the phase offered (0 when
// the workload has none).
func reportStats(r *report, st live.Stats, longs int) {
	perLong := 0.0
	if longs > 0 {
		perLong = float64(st.Preemptions) / float64(longs)
	}
	r.set("live.preemptions_per_long", perLong)
	pct := 0.0
	if st.Completed > 0 {
		pct = 100 * float64(st.DispatcherRun) / float64(st.Completed)
	}
	r.set("live.dispatcher_run_pct", pct)
	r.set("live.rejected", float64(st.Rejected))
	r.set("live.expired", float64(st.Expired))
}
