package main

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"concord/internal/live"
	"concord/internal/obs"
)

// bimodal_open: an open loop. One generator busy-waits on the clock and
// calls SubmitFunc on a Poisson schedule; 99.5 % of requests spin 100 µs
// and 0.5 % spin 10 ms (the paper's 99.5/0.5 bimodal with the dispersion
// scaled from 1000× to 100×, because a Go quantum is ≥ 50 µs). Latency is
// timed from the moment a request was due. Preemption, the policy queue
// and requeue do the work here and per-request overhead is a few percent
// of a short request, so quantum, policy and controller changes show here
// and dispatch_null should not move.
const (
	openShort    = 100 * time.Microsecond
	openLong     = 10 * time.Millisecond
	openLongFrac = 0.005
	// openFixedRate is the rate the latency metrics are measured at, about
	// half of what the server sustains today. README.md has the measurements
	// behind the choice: at 8000 req/s the short-class tail sits on the knee
	// where two long requests overlap and swings ±25 % between identical
	// rungs; at 4000 it barely notices preemption. At 6000 the reported tail
	// is the short p90 (≈ 270 µs: service plus most of a quantum's wait
	// behind a long request): medians of ten one-second rungs repeat within
	// 6 % over ten runs, where the p95 — on the same knee, lower down — had
	// a spread of 25 %. The SLO of the staircase stays on the p95, which the
	// walk averages over.
	openFixedRate = 6000.0
	// Half of a run's phases are rungs at the fixed rate. The other half
	// are an up-down staircase (stats.go, crossing) that starts at
	// openStairStart and moves by openStep: up after a rung that met the
	// SLO, down after one that did not.
	openStairStart = 8000.0
	openStep       = 1.06
	// A rung is warmed up by openWarmShare of its length at the fixed rate.
	openWarmShare = 0.125
	// The SLO: each class at most openSlowdown times its service time at
	// its percentile (short p95, long p50), nothing refused,
	// and at least 99 % of the offered requests answered by the time the
	// rung ends (no growing backlog). The long-class clause is there so
	// that a higher rate bought by starving long requests does not count.
	openSlowdown    = 20
	openSLO         = openSlowdown * openShort
	openMinAnswered = 0.99
	// A rung whose backlog reaches openBacklogCap requests is beyond any
	// rate the SLO admits (the cap is a tenth of a second of work); the
	// generator stops offering there and the rung fails. This bounds what
	// a rung leaves to drain when the host takes the processors away, and
	// keeps the backlog under the runtime's submit buffer (4096), so no
	// request is ever refused.
	openBacklogCap = 2000
	// A rung whose generator ran more than openLateLimit late at its p99
	// did not offer the load it claims: its phase ranks behind every phase
	// whose generator kept time, and gen.invalid_rungs counts it.
	openLateLimit = 100 * time.Microsecond
	openDrainWait = 20 * time.Second
)

// spinHandler spins for the time the request asks for, polling for
// preemption as Ctx.Spin does.
type spinHandler struct{}

func (spinHandler) Setup()          {}
func (spinHandler) SetupWorker(int) {}
func (spinHandler) Handle(ctx *live.Ctx, payload any) (any, error) {
	ctx.Spin(payload.(*openReq).spin)
	return nil, nil
}

// openInputs is what one rung offers and where its results go: the
// schedule of the rung and of its warm-up and a result slot per request,
// generated before set-up is timed and reused from rung to rung.
type openInputs struct {
	rung *schedule
	warm *schedule // at the fixed rate, not measured
	lat  []int64   // from due time, ns; unanswered until the response
	late []int64   // generator lateness, ns
}

// fill generates rung number n of a run at rate req/s.
func (in *openInputs) fill(seed uint64, n int, rate float64, rungDur time.Duration) {
	if in.rung == nil {
		in.rung, in.warm = &schedule{}, &schedule{}
	}
	warmDur := time.Duration(openWarmShare * float64(rungDur))
	in.rung.fill(newRand(seed, uint64(2*n)), rate, rungDur, openLongFrac, openShort, openLong)
	in.warm.fill(newRand(seed, uint64(2*n+1)), openFixedRate, warmDur, openLongFrac, openShort, openLong)
	if most := len(in.rung.due); len(in.lat) < most {
		in.lat, in.late = make([]int64, 2*most), make([]int64, 2*most) // room for any rate a staircase reaches
	}
}

// openBench is one set-up instance: a started server and the inputs of
// the rung it will be offered.
type openBench struct {
	srv *live.Server
	*openInputs
}

const unanswered = math.MinInt64

// buildOpen sets a server up: set-up is over when it has answered.
func buildOpen(in *openInputs, tr *obs.Tracer) func(*openBench) (*openBench, error) {
	return func(*openBench) (*openBench, error) {
		b := &openBench{srv: newLive(spinHandler{}, tr), openInputs: in}
		b.srv.Start()
		b.srv.Do(&openReq{spin: 0})
		return b, nil
	}
}

// rungResult is what one rung measured.
type rungResult struct {
	rate          float64
	offered       int
	refused       int
	duplicates    int
	answeredAtEnd int  // responses in hand when the rung's time was up
	overloaded    bool // the backlog reached openBacklogCap: offering stopped
	short, long   latencySummary
	latP99        time.Duration // generator lateness
	pass          bool
}

// openTrace is what a traced rung records beyond an untraced one.
type openTrace struct {
	bds     *breakdowns
	depth   depthSampler
	callEnd []time.Duration // when SubmitFunc returned, from the rung's start
}

// offer offers one schedule and waits for every response.
func (b *openBench) offer(s *schedule, tr *openTrace) (rungResult, error) {
	n := len(s.due)
	lat, late := b.lat[:n], b.late[:n]
	for i := range lat {
		lat[i] = unanswered
	}
	var answered, refused, duplicates atomic.Int64
	settle()
	base := time.Now()
	done := func(resp live.Response) {
		q := resp.Req.(*openReq)
		if lat[q.idx] != unanswered {
			duplicates.Add(1)
		}
		if resp.Err != nil {
			refused.Add(1)
		}
		lat[q.idx] = int64(resp.Done.Sub(base) - s.due[q.idx])
		if tr != nil {
			tr.bds.put(q.idx, &resp)
		}
		answered.Add(1)
	}
	res := rungResult{rate: s.rate}
	for i := range s.due {
		if int64(i)-answered.Load() >= openBacklogCap {
			res.overloaded = true
			break
		}
		now := time.Since(base)
		for now < s.due[i] {
			now = time.Since(base)
		}
		late[i] = int64(now - s.due[i])
		b.srv.SubmitFunc(&s.reqs[i], done)
		res.offered++
		if tr != nil {
			tr.callEnd[i] = time.Since(base)
			if i%64 == 0 {
				tr.depth.sample(b.srv)
			}
		}
	}
	n = res.offered
	lat, late = lat[:n], late[:n]
	for !res.overloaded && time.Since(base) < s.dur {
	}
	res.answeredAtEnd = int(answered.Load())
	for deadline := time.Now().Add(openDrainWait); answered.Load() < int64(n); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return res, fmt.Errorf("rung at %.0f req/s: %d of %d requests unanswered %v after it ended",
				s.rate, int64(n)-answered.Load(), n, openDrainWait)
		}
	}
	res.refused, res.duplicates = int(refused.Load()), int(duplicates.Load())

	var short, long []int64
	for i, q := range s.reqs[:n] {
		if q.long {
			long = append(long, lat[i])
		} else {
			short = append(short, lat[i])
		}
	}
	res.short, res.long = summarize(short), summarize(long)
	sortedLate := slices.Clone(late)
	slices.Sort(sortedLate)
	res.latP99 = time.Duration(quantileSorted(sortedLate, 0.99))
	res.pass = !res.overloaded &&
		res.short.p95 <= float64(openSLO.Microseconds()) &&
		(res.long.n == 0 || res.long.p50 <= openSlowdown*float64(openLong.Microseconds())) &&
		res.refused == 0 &&
		float64(res.answeredAtEnd) >= openMinAnswered*float64(n)
	return res, nil
}

// valid reports whether the generator kept its schedule.
func (r rungResult) valid() bool { return r.latP99 <= openLateLimit }

func (r rungResult) String() string {
	return fmt.Sprintf("rung %6.0f req/s: offered=%d refused=%d answered_at_end=%d short p50=%.0f p90=%.0f p95=%.0f p99=%.0f long p50=%.0f late p99=%v overloaded=%v pass=%v",
		r.rate, r.offered, r.refused, r.answeredAtEnd, r.short.p50, r.short.p90, r.short.p95, r.short.p99, r.long.p50, r.latP99, r.overloaded, r.pass)
}

// openTotals are a run's counts across rungs.
type openTotals struct {
	attempted int64
	refused   int64
	invalid   int     // rungs whose generator ran late
	lateP99   float64 // worst rung's generator lateness p99, µs
}

// run warms the instance up (the task pool, request goroutine stacks and
// the collector's pacing settle; without it the generator ran milliseconds
// late), offers its rung, stops the server and runs the output checks.
func (b *openBench) run(r *report, t *openTotals, tr *openTrace) (rungResult, error) {
	warm, err := b.offer(b.warm, nil)
	if err != nil {
		return warm, err
	}
	res, err := b.offer(b.rung, tr)
	if err != nil {
		return res, err
	}
	fmt.Println(res)
	b.srv.Stop()
	checkConservation(r, b.srv, int64(warm.offered+res.offered)+1) // +1: set-up's request
	if dup := warm.duplicates + res.duplicates; dup > 0 {
		r.violate("rung at %.0f req/s: %d requests answered twice", res.rate, dup)
	}
	t.attempted += int64(warm.offered + res.offered)
	t.refused += int64(warm.refused + res.refused)
	t.lateP99 = max(t.lateP99, float64(res.latP99.Nanoseconds())/1e3)
	if !res.valid() {
		t.invalid++
	}
	return res, nil
}

func runBimodalOpen(c config, r *report) error {
	if c.traced {
		return traceBimodalOpen(c, r)
	}
	n, rate := 0, openFixedRate
	in := &openInputs{}
	ph := newPhases(r, buildOpen(in, nil), func(b *openBench) { b.srv.Stop() })
	// A staircase rung's rate depends on the rung before, so the inputs are
	// generated phase by phase; set-up times the server alone.
	ph.prepare = func() { in.fill(c.seed, n, rate, phaseLength(c.seconds)) }
	var t openTotals
	var last rungResult
	rung := func(b *openBench, v *phaseValues) error {
		n++
		res, err := b.run(r, &t, nil)
		if err != nil {
			return err
		}
		if !res.valid() {
			v.disturbed()
		}
		v.put("p50_us", res.short.p50, res.short.n)
		v.put("tail_us", res.short.p90, res.short.n)
		last = res
		return nil
	}
	if err := ph.rehearse(rung); err != nil {
		return err
	}

	// Fixed load: the short class's latency at openFixedRate.
	for i := 0; i < phasesPerRun/2; i++ {
		if err := ph.run(rung); err != nil {
			return err
		}
	}

	// The staircase: the highest rate that meets the SLO. Its rungs are
	// set up and torn down like the others but file only their set-up
	// times: their latencies belong to whatever rates it visits.
	var rates []float64
	var passes []bool
	rate = openStairStart
	for i := 0; i < phasesPerRun/2; i++ {
		v, err := ph.do(rung)
		if err != nil {
			return err
		}
		r.phases["setup_s"] = append(r.phases["setup_s"], v.vals["setup_s"])
		rates, passes = append(rates, last.rate), append(passes, last.pass)
		if last.pass {
			rate *= openStep
		} else {
			rate /= openStep
		}
	}
	atSLO, bracketed := crossing(rates, passes)
	if !bracketed {
		fmt.Printf("every rung of the staircase had the same outcome: %.0f req/s is a bound, not a crossing\n", atSLO)
	}

	r.attempted, r.failed = t.attempted, t.refused
	if r.failed > 0 {
		r.violate("%d requests refused", r.failed)
	}
	r.conclude("setup_s")
	r.timing("throughput_rps", atSLO, len(rates))
	r.conclude("p50_us")
	r.concludeTail("tail_us", 0.90) // see openFixedRate: p95 sits on a knee, percentiles ≥ p99 measure the host
	return nil
}

// traceBimodalOpen is the traced run: one untraced fixed-rate rung for the
// class split and the diagnostic percentiles, one with Options.Tracer and
// spans around the generator's calls.
func traceBimodalOpen(c config, r *report) error {
	rungDur := time.Duration(c.seconds / 2 * float64(time.Second))
	in := &openInputs{}
	in.fill(c.seed, 0, openFixedRate, rungDur)
	var t openTotals
	b, err := buildOpen(in, nil)(nil)
	if err != nil {
		return err
	}
	plain, err := b.run(r, &t, nil)
	if err != nil {
		return err
	}
	r.timing("open.short_p50_us_r6k", plain.short.p50, plain.short.n)
	r.timing("open.short_p95_us_r6k", plain.short.p95, plain.short.n)
	r.timing("open.short_p99_us_r6k", plain.short.p99, plain.short.n)
	r.timing("open.short_p999_us_r6k", plain.short.p999, plain.short.n)
	r.timing("open.long_p50_us_r6k", plain.long.p50, plain.long.n)

	tb, err := buildOpen(in, newTracer())(nil) // the same schedule again
	if err != nil {
		return err
	}
	s := tb.rung
	tr := &openTrace{bds: newBreakdowns(len(s.due)), callEnd: make([]time.Duration, len(s.due))}
	traced, err := tb.run(r, &t, tr)
	if err != nil {
		return err
	}
	r.attempted, r.failed = t.attempted, t.refused
	if r.failed > 0 {
		r.violate("%d requests refused", r.failed)
	}

	// Spans of the first requests: the request from its due time to its
	// response; under it the generator's wait (how late the call began),
	// the SubmitFunc call, and the time the runtime had the request, with
	// the Breakdown components under that.
	calls := make([]int64, traced.offered)
	for i := range calls {
		start := s.due[i] + time.Duration(tb.late[i])
		calls[i] = int64(tr.callEnd[i] - start)
		if i >= spanRequests {
			continue
		}
		end := s.due[i] + time.Duration(tb.lat[i])
		c.spans.add(i, "request", "", s.due[i], end)
		c.spans.add(i, "gen.wait", "request", s.due[i], start)
		c.spans.add(i, "live.SubmitFunc", "request", start, tr.callEnd[i])
		c.spans.chain(i, "live.serve", "request", start, end-start, tr.bds, i)
	}
	call := summarize(calls)
	r.timing("live.submit_call_ns_p50", call.p50*1e3, call.n)
	tr.bds.trim(traced.offered)
	tr.bds.report(r)
	tr.depth.report(r)
	reportStats(r, tb.srv.Stats(), s.longs)
	r.set("gen.late_us_p99", t.lateP99)
	r.set("gen.invalid_rungs", float64(t.invalid))
	r.set("obs.tracer_overhead_pct", 100*(traced.short.p50-plain.short.p50)/plain.short.p50)
	return nil
}
