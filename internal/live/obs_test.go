package live

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"concord/internal/obs"
)

func tracedOptions(workers int, quantum time.Duration, ringSize int) Options {
	o := testOptions(workers, quantum)
	o.Tracer = obs.NewTracer(workers, ringSize)
	return o
}

// TestTracerLifecycleEvents runs one preempted request and checks the
// snapshot holds its full event sequence. The request waits for its
// slice to run out twice (awaitSignal) rather than spinning for a
// duration a 100µs quantum "must" interrupt, so the yield events are
// real expiries and no clock decides the outcome.
func TestTracerLifecycleEvents(t *testing.T) {
	opts := tracedOptions(1, 100*time.Microsecond, 1024)
	s := New(&yieldHandler{}, opts)
	s.Start()
	resp := s.Do(yieldReq{yields: 2, await: true})
	s.Stop()
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if resp.Preemptions != 2 {
		t.Fatalf("request waited for two expiries and reports %d preemptions", resp.Preemptions)
	}
	kinds := map[obs.Kind]int{}
	for _, e := range opts.Tracer.Snapshot() {
		if e.Req == resp.ID {
			kinds[e.Kind]++
		}
	}
	for _, want := range []obs.Kind{
		obs.EvSubmit, obs.EvEnqueueCentral, obs.EvDispatch, obs.EvStart,
		obs.EvYield, obs.EvRequeue, obs.EvResume, obs.EvComplete,
	} {
		if kinds[want] == 0 {
			t.Fatalf("missing %v event; got %v", want, kinds)
		}
	}
	if kinds[obs.EvComplete] != 1 {
		t.Fatalf("request must complete exactly once, got %d", kinds[obs.EvComplete])
	}
	if kinds[obs.EvYield] != resp.Preemptions {
		t.Fatalf("yield events = %d, response says %d preemptions", kinds[obs.EvYield], resp.Preemptions)
	}
}

// TestBreakdownSumsToLatency is the end-to-end attribution invariant:
// for every traced request, the four components of Response.Breakdown
// sum exactly to Response.Latency, and so does the event-derived
// breakdown's total.
func TestBreakdownSumsToLatency(t *testing.T) {
	opts := tracedOptions(2, 200*time.Microsecond, 1<<15)
	s := New(&spinHandler{}, opts)
	s.Start()
	const n = 50
	chans := make([]<-chan Response, 0, n)
	for i := 0; i < n; i++ {
		d := 100 * time.Microsecond
		if i%10 == 0 {
			d = time.Millisecond // long requests get preempted
		}
		chans = append(chans, s.Submit(d))
	}
	latencies := map[uint64]time.Duration{}
	for _, ch := range chans {
		resp := <-ch
		if resp.Err != nil {
			t.Fatal(resp.Err)
		}
		if resp.Breakdown == nil {
			t.Fatal("traced server must attach a Breakdown to every response")
		}
		b := resp.Breakdown
		if sum := b.Handoff + b.Queue + b.Service + b.Preempted; sum != resp.Latency {
			t.Fatalf("breakdown sum %v != latency %v (handoff=%v queue=%v service=%v preempted=%v)",
				sum, resp.Latency, b.Handoff, b.Queue, b.Service, b.Preempted)
		}
		if b.Service <= 0 {
			t.Fatalf("spin request has no service time: %+v", b)
		}
		latencies[resp.ID] = resp.Latency
	}
	s.Stop()

	// Cross-check through the event pipeline: the submit and terminal
	// events are stamped at the response's own arrival and end, so the
	// total Analyze reconstructs is the response latency exactly, and
	// its components partition it up to float rounding.
	bds := obs.Analyze(opts.Tracer.Snapshot())
	checked := 0
	for _, b := range bds {
		lat, ok := latencies[b.Req]
		if !ok || b.Partial {
			continue
		}
		checked++
		latUS := float64(lat) / float64(time.Microsecond)
		if math.Abs(b.SumUS()-b.TotalUS()) > 1e-9*b.TotalUS() {
			t.Fatalf("req %d: event components %v don't sum to event total %v", b.Req, b.SumUS(), b.TotalUS())
		}
		if b.TotalUS() != latUS {
			t.Fatalf("req %d: event-derived total %vµs vs response latency %vµs", b.Req, b.TotalUS(), latUS)
		}
	}
	if checked < n {
		t.Fatalf("only %d/%d requests fully traced (ring too small?)", checked, n)
	}
}

// TestTraceAgreesWithBreakdown: a traced request's events and its
// Response.Breakdown read one clock, on every path a request can take —
// a placed Do and TryDo, Submit, SubmitFunc, a preempted request placed
// or not, and one whose deadline passes while it is queued. For each,
// obs.Analyze's components equal the Breakdown's up to float rounding,
// the submit event carries the arrival (Done − Latency) and the terminal
// event Done, and a placed request has no hand-off or queue wait in
// either.
func TestTraceAgreesWithBreakdown(t *testing.T) {
	rows := []struct {
		name   string
		placed bool
		run    func(t *testing.T, s *Server, h *yieldHandler) Response
	}{
		{"placed Do", true, func(t *testing.T, s *Server, _ *yieldHandler) Response {
			return s.Do(yieldReq{})
		}},
		{"placed TryDo", true, func(t *testing.T, s *Server, _ *yieldHandler) Response {
			resp, placed := s.TryDo(yieldReq{}, func(Response) { t.Error("TryDo on an idle server did not place") })
			if !placed {
				t.Fatal("TryDo on an idle server did not place")
			}
			return resp
		}},
		{"Submit", false, func(t *testing.T, s *Server, _ *yieldHandler) Response {
			return <-s.Submit(yieldReq{})
		}},
		{"SubmitFunc", false, func(t *testing.T, s *Server, _ *yieldHandler) Response {
			ch := make(chan Response, 1)
			s.SubmitFunc(yieldReq{}, func(r Response) { ch <- r })
			return <-ch
		}},
		{"preempted Submit", false, func(t *testing.T, s *Server, _ *yieldHandler) Response {
			return <-s.Submit(yieldReq{yields: 2, await: true})
		}},
		{"preempted placed Do", true, func(t *testing.T, s *Server, _ *yieldHandler) Response {
			return s.Do(yieldReq{yields: 2, await: true})
		}},
		{"expired while queued", false, func(t *testing.T, s *Server, h *yieldHandler) Response {
			quietDispatcher(t)
			blocked := s.Submit("block")
			waitUntil(t, "blocker to occupy the worker", func() bool { return s.Depths().Workers[0] == 1 })
			late := s.Submit(yieldReq{})
			waitUntil(t, "late request to reach the worker's local queue", func() bool { return s.Depths().Workers[0] == 2 })
			advanceClock(t, s.opts.RequestTimeout+time.Millisecond)
			close(h.release)
			<-blocked
			resp := <-late
			if !errors.Is(resp.Err, ErrDeadlineExceeded) {
				t.Fatalf("late request: err %v, want ErrDeadlineExceeded", resp.Err)
			}
			return resp
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			opts := tracedOptions(1, 100*time.Microsecond, 1<<12)
			opts.RequestTimeout = time.Hour
			h := &yieldHandler{release: make(chan struct{})}
			s := New(h, opts)
			s.Start()
			resp := row.run(t, s, h)
			s.Stop()
			if resp.Err != nil && !errors.Is(resp.Err, ErrDeadlineExceeded) {
				t.Fatal(resp.Err)
			}
			if (resp.Preemptions > 0) != strings.HasPrefix(row.name, "preempted") {
				t.Fatalf("%d preemptions", resp.Preemptions)
			}
			events := opts.Tracer.Snapshot()
			var got *obs.Breakdown
			for _, b := range obs.Analyze(events) {
				if b.Req == resp.ID {
					got = &b
				}
			}
			if got == nil || got.Partial {
				t.Fatalf("request %d: no whole breakdown in the trace (%+v)", resp.ID, got)
			}
			want := resp.Breakdown
			us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
			for _, c := range []struct {
				name      string
				got, want float64
			}{
				{"ingress", got.IngressUS, us(want.Ingress)},
				{"handoff", got.HandoffUS, us(want.Handoff)},
				{"queue", got.QueueUS, us(want.Queue)},
				{"service", got.ServiceUS, us(want.Service)},
				{"preempted", got.PreemptedUS, us(want.Preempted)},
				{"total", got.TotalUS(), us(resp.Latency)},
			} {
				if math.Abs(c.got-c.want) > 1e-6 {
					t.Errorf("%s: trace %vµs, Breakdown %vµs", c.name, c.got, c.want)
				}
			}
			if row.placed && (got.HandoffUS != 0 || got.QueueUS != 0) {
				t.Errorf("placed request: trace hand-off %vµs, queue %vµs, want 0", got.HandoffUS, got.QueueUS)
			}
			for _, e := range events {
				switch {
				case e.Req != resp.ID:
				case e.Kind == obs.EvSubmit && Stamp(e.TS) != resp.Done-Stamp(resp.Latency):
					t.Errorf("submit stamped %d, want the arrival Done − Latency = %d", e.TS, resp.Done-Stamp(resp.Latency))
				case e.Kind.Terminal() && Stamp(e.TS) != resp.Done:
					t.Errorf("%v stamped %d, want Done = %d", e.Kind, e.TS, resp.Done)
				}
			}
		})
	}
}

// TestTracedChromeExport drives real traffic and checks the exporter
// produces valid, non-trivial JSON end to end.
func TestTracedChromeExport(t *testing.T) {
	opts := tracedOptions(2, 100*time.Microsecond, 1<<14)
	s := New(&spinHandler{}, opts)
	s.Start()
	for i := 0; i < 20; i++ {
		if resp := s.Do(200 * time.Microsecond); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	s.Stop()
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, opts.Tracer.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 100 || !bytes.Contains(buf.Bytes(), []byte(`"traceEvents"`)) {
		t.Fatalf("implausible export (%d bytes)", buf.Len())
	}
}

// TestDepths checks the live queue-depth surface against a saturation
// it holds still: n blockers on a one-worker server at QueueBound 1,
// with the dispatcher kept from running any itself. One blocks the
// worker — its handler has started, and the worker reads full — and the other n−1 are waiting in the ingress or the central
// queue. Then every blocker is let go and answers.
func TestDepths(t *testing.T) {
	quietDispatcher(t)
	opts := tracedOptions(1, 0, 1024)
	opts.QueueBound = 1
	h := &yieldHandler{release: make(chan struct{})}
	s := New(h, opts)
	s.Start()
	defer s.Stop()
	const n = 8
	chans := make([]<-chan Response, 0, n)
	for i := 0; i < n; i++ {
		chans = append(chans, s.Submit("block"))
	}
	waitUntil(t, "one blocker on the worker and the rest queued", func() bool {
		d := s.Depths()
		return h.blocked.Load() == 1 && d.Workers[0] == 1 && d.Central+d.Submit == n-1
	})
	close(h.release)
	for _, ch := range chans {
		if resp := <-ch; resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
}

// TestRejectedTraced checks rejections are traced with the right
// status and get no breakdown components.
func TestRejectedTraced(t *testing.T) {
	opts := tracedOptions(1, 0, 256)
	s := New(&spinHandler{}, opts)
	s.Start()
	s.Stop()
	resp := s.Do(time.Microsecond)
	if resp.Err == nil {
		t.Fatal("submit after stop must fail")
	}
	found := false
	for _, e := range opts.Tracer.Snapshot() {
		if e.Req == resp.ID && e.Kind == obs.EvReject && e.Arg == obs.StatusStopped {
			found = true
		}
	}
	if !found {
		t.Fatal("reject event missing")
	}
}

// TestResponseService: Response.Service is the request's summed run
// time — positive and within Latency when it ran, Breakdown.Service
// when traced — and 0 for a request that never ran: a rejection, and
// one whose deadline passed while it sat in its worker's local queue.
func TestResponseService(t *testing.T) {
	for _, o := range []Options{testOptions(1, 0), tracedOptions(1, 0, 256)} {
		s := New(&spinHandler{}, o)
		s.Start()
		resp := s.Do(20 * time.Microsecond)
		s.Stop()
		if resp.Err != nil {
			t.Fatal(resp.Err)
		}
		if resp.Service <= 0 || resp.Service > resp.Latency {
			t.Errorf("traced %v: Service %v, want in (0, Latency %v]", o.Tracer != nil, resp.Service, resp.Latency)
		}
		if b := resp.Breakdown; b != nil && b.Service != resp.Service {
			t.Errorf("Service %v, Breakdown.Service %v", resp.Service, b.Service)
		}
		if resp := s.Do(time.Microsecond); resp.Err == nil || resp.Service != 0 {
			t.Errorf("rejection: err %v, Service %v, want ErrServerStopped and 0", resp.Err, resp.Service)
		}
	}

	h := &orderRecHandler{release: make(chan struct{})}
	o := testOptions(1, 0)
	o.RequestTimeout = time.Hour
	s := New(h, o)
	s.Start()
	defer s.Stop()
	blocked := s.Submit("block")
	waitUntil(t, "blocker to occupy the worker", func() bool { return s.Depths().Workers[0] == 1 })
	late := s.Submit(unlabeledReq{label: "late"})
	waitUntil(t, "late request to reach the worker's local queue", func() bool { return s.Depths().Workers[0] == 2 })
	advanceClock(t, o.RequestTimeout+time.Millisecond)
	close(h.release)
	<-blocked
	if resp := <-late; !errors.Is(resp.Err, ErrDeadlineExceeded) || resp.Service != 0 {
		t.Errorf("expired while queued: err %v, Service %v, want ErrDeadlineExceeded and 0", resp.Err, resp.Service)
	}
}

func TestTracerWorkerMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New must panic on tracer/worker mismatch")
		}
	}()
	New(&spinHandler{}, Options{Workers: 2, Tracer: obs.NewTracer(3, 64)})
}
