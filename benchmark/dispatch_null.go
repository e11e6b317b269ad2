package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"concord/internal/live"
	"concord/internal/obs"
)

// dispatch_null: a closed loop of nullClients goroutines calling
// Server.Do with a handler that does nothing. The runtime's per-request
// path (ingest, policy queue, JBSQ, worker hand-off, finish) does all the
// work — the smallest-packet case, where a cheaper path must show and a
// scheduling-policy change must not.
const (
	nullClients = 2
	// nullSlotsPerSec sizes each client's preallocated latency slots, a
	// few times today's per-client rate; a client that fills them ends
	// its repetition early instead of allocating.
	nullSlotsPerSec = 1_000_000
	// depthEvery is how many requests a traced client sends between
	// queue-depth samples.
	depthEvery = 1024
	// nullTraceRows is how many Breakdown rows a traced client keeps.
	nullTraceRows = 1 << 20
)

// echoHandler does no work; returning the payload lets the client check
// that the response it got is its own.
type echoHandler struct{}

func (echoHandler) Setup()          {}
func (echoHandler) SetupWorker(int) {}
func (echoHandler) Handle(_ *live.Ctx, payload any) (any, error) {
	return payload, nil
}

type nullReq struct{ client int }

// nullBench is one set-up instance: a started server, one payload and
// one block of latency slots per client, and how many requests it has
// sent the server, for the conservation check.
type nullBench struct {
	srv       *live.Server
	reqs      []*nullReq
	lat       [][]int64
	attempted int64
}

func buildNull(tr *obs.Tracer, repSeconds float64) func(old *nullBench) (*nullBench, error) {
	return func(old *nullBench) (*nullBench, error) {
		b := &nullBench{srv: newLive(echoHandler{}, tr)}
		for c := 0; c < nullClients; c++ {
			b.reqs = append(b.reqs, &nullReq{client: c})
			if old != nil {
				b.lat = append(b.lat, old.lat[c][:0])
				continue
			}
			lat := make([]int64, int(repSeconds*nullSlotsPerSec))
			for i := 0; i < len(lat); i += 512 {
				lat[i] = 0 // fault the pages in now, not in the first repetition
			}
			b.lat = append(b.lat, lat[:0])
		}
		b.srv.Start()
		for _, req := range b.reqs {
			b.srv.Do(req) // the server answers: set-up is over
			b.attempted++
		}
		return b, nil
	}
}

// nullRep is one closed-loop repetition.
type nullRep struct {
	rps    float64
	lat    latencySummary
	allocs float64 // heap allocations per request, whole process
	bad    int     // responses that were an error or not the client's own
}

// rep runs every client for dur. bds and depth are nil on untraced
// repetitions.
func (b *nullBench) rep(dur time.Duration, bds []*breakdowns, depth *depthSampler) nullRep {
	settle()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ends := make([]time.Time, nullClients)
	bad := make([]int, nullClients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < nullClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			req, lat := b.reqs[c], b.lat[c][:0]
			var bd *breakdowns
			if bds != nil {
				bd = bds[c]
			}
			now := time.Now()
			for now.Before(deadline) && len(lat) < cap(lat) {
				resp := b.srv.Do(req)
				done := time.Now()
				lat = append(lat, int64(done.Sub(now)))
				now = done
				if resp.Err != nil || resp.Payload != any(req) {
					bad[c]++
				}
				if bd != nil {
					bd.put(len(lat)-1, &resp)
					if c == 0 && len(lat)%depthEvery == 0 {
						depth.sample(b.srv)
					}
				}
			}
			b.lat[c], ends[c] = lat, now
		}(c)
	}
	wg.Wait()
	runtime.ReadMemStats(&after)
	end := ends[0]
	var all []int64
	out := nullRep{}
	for c := 0; c < nullClients; c++ {
		if ends[c].After(end) {
			end = ends[c]
		}
		all = append(all, b.lat[c]...)
		out.bad += bad[c]
	}
	b.attempted += int64(len(all))
	out.rps = float64(len(all)) / end.Sub(start).Seconds()
	out.allocs = float64(after.Mallocs-before.Mallocs) / float64(len(all))
	out.lat = summarize(all)
	return out
}

func runDispatchNull(c config, r *report) error {
	if c.traced {
		return traceDispatchNull(c, r)
	}
	dur := phaseLength(c.seconds)
	ph := newPhases(r, buildNull(nil, dur.Seconds()), func(b *nullBench) { b.srv.Stop() })
	measure := func(b *nullBench, v *phaseValues) error {
		b.rep(dur/8, nil, nil) // warm-up: task pool, goroutine stacks, caches
		rep := b.rep(dur, nil, nil)
		fmt.Printf("phase: rps=%.0f p50=%.2f p99=%.2f n=%d\n", rep.rps, rep.lat.p50, rep.lat.p99, rep.lat.n)
		v.putRate("throughput_rps", rep.rps, rep.lat.n)
		v.putTime("p50_us", rep.lat.p50, rep.lat.n)
		v.putTime("tail_us", rep.lat.p99, rep.lat.n)
		r.attempted += int64(rep.lat.n)
		r.failed += int64(rep.bad)
		b.srv.Stop()
		checkConservation(r, b.srv, b.attempted) // counts set-up's and the warm-up's requests too
		return nil
	}
	if err := ph.rehearse(measure); err != nil {
		return err
	}
	for i := 0; i < phasesPerRun; i++ {
		if err := ph.run(measure); err != nil {
			return err
		}
	}
	if r.failed > 0 {
		r.violate("%d responses were errors or not the client's own payload", r.failed)
	}
	r.conclude("setup_s")
	r.conclude("throughput_rps")
	r.conclude("p50_us")
	r.concludeTail("tail_us", 0.99) // closed loop, ≤ nproc in flight: p99 is stable here
	return nil
}

// traceDispatchNull is the traced run: one untraced repetition for the
// baseline, one with Options.Tracer for the Breakdown ledger, then the
// single-client round trips.
func traceDispatchNull(c config, r *report) error {
	repDur := time.Duration(c.seconds / 4 * float64(time.Second))
	b, err := buildNull(nil, repDur.Seconds())(nil)
	if err != nil {
		return err
	}
	b.rep(repDur/8, nil, nil)
	base := b.rep(repDur, nil, nil)
	r.set("live.allocs_per_req", base.allocs)
	rttSubmit, rttFunc, call := b.roundTrips(repDur / 4)
	r.timing("live.rtt_submit_ns", rttSubmit.p50*1e3, rttSubmit.n)
	r.timing("live.rtt_submitfunc_ns", rttFunc.p50*1e3, rttFunc.n)
	r.timing("live.submit_call_ns_p50", call.p50*1e3, call.n)
	b.srv.Stop()
	checkConservation(r, b.srv, b.attempted)

	tb, err := buildNull(newTracer(), repDur.Seconds())(nil)
	if err != nil {
		return err
	}
	tb.rep(repDur/8, nil, nil)
	bds := []*breakdowns{newBreakdowns(nullTraceRows), newBreakdowns(nullTraceRows)}
	depth := &depthSampler{}
	traced := tb.rep(repDur, bds, depth)
	for c, bd := range bds {
		bd.trim(len(tb.lat[c]))
	}
	tb.srv.Stop()
	checkConservation(r, tb.srv, tb.attempted)
	r.attempted = b.attempted + tb.attempted
	r.failed = int64(base.bad + traced.bad)
	if r.failed > 0 {
		r.violate("%d responses were errors or not the client's own payload", r.failed)
	}

	// One client's spans: Do is one call, so the request span and the
	// live.Do span coincide and the Breakdown components are its children,
	// laid end to end in the order the runtime goes through them.
	col, at := bds[0], time.Duration(0)
	for i := 0; i < min(spanRequests, len(col.handoff)); i++ {
		lat := time.Duration(tb.lat[0][i])
		c.spans.chain(i, "live.Do", "", at, lat, col, i)
		at += lat
	}
	bds[0].merge(bds[1])
	bds[0].report(r)
	depth.report(r)
	reportStats(r, tb.srv.Stats(), 0)
	r.set("obs.tracer_overhead_pct", 100*(base.rps-traced.rps)/base.rps)
	return nil
}

// roundTrips times single-client, zero-work round trips through Submit
// and through SubmitFunc for dur each, and the time spent inside the
// SubmitFunc call itself (ingest's busy time per request).
func (b *nullBench) roundTrips(dur time.Duration) (submit, submitFunc, call latencySummary) {
	req := b.reqs[0]
	lat := b.lat[0][:0]
	settle()
	deadline := time.Now().Add(dur)
	for now := time.Now(); now.Before(deadline) && len(lat) < cap(lat); {
		<-b.srv.Submit(req)
		done := time.Now()
		lat = append(lat, int64(done.Sub(now)))
		now = done
	}
	b.attempted += int64(len(lat))
	submit = summarize(lat)

	lat = lat[:0]
	calls := b.lat[1][:0]
	answered := make(chan struct{}, 1) // one request in flight, so one slot
	cb := func(live.Response) { answered <- struct{}{} }
	settle()
	deadline = time.Now().Add(dur)
	for now := time.Now(); now.Before(deadline) && len(lat) < cap(lat); {
		b.srv.SubmitFunc(req, cb)
		returned := time.Now()
		<-answered
		done := time.Now()
		calls = append(calls, int64(returned.Sub(now)))
		lat = append(lat, int64(done.Sub(now)))
		now = done
	}
	b.attempted += int64(len(lat))
	return submit, summarize(lat), summarize(calls)
}
