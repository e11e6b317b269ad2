package live

import (
	"bytes"
	"math"
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
// sum exactly to Response.Latency, and the event-derived breakdown
// agrees with the response's end-to-end latency within epsilon.
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
		sum := b.Handoff + b.Queue + b.Service + b.Preempted
		if diff := (sum - resp.Latency).Abs(); diff > resp.Latency/100+time.Microsecond {
			t.Fatalf("breakdown sum %v != latency %v (handoff=%v queue=%v service=%v preempted=%v)",
				sum, resp.Latency, b.Handoff, b.Queue, b.Service, b.Preempted)
		}
		if b.Service <= 0 {
			t.Fatalf("spin request has no service time: %+v", b)
		}
		latencies[resp.ID] = resp.Latency
	}
	s.Stop()

	// Cross-check through the event pipeline: Analyze must reconstruct
	// totals that match the response latencies within 1% + jitter slack
	// (the event timestamps are taken adjacent to, not at, the
	// latency-defining time.Now calls).
	bds := obs.Analyze(opts.Tracer.Snapshot())
	checked := 0
	for _, b := range bds {
		lat, ok := latencies[b.Req]
		if !ok || b.Partial {
			continue
		}
		checked++
		latUS := float64(lat) / float64(time.Microsecond)
		if math.Abs(b.SumUS()-b.TotalUS()) > b.TotalUS()/100+1 {
			t.Fatalf("req %d: event components %v don't sum to event total %v", b.Req, b.SumUS(), b.TotalUS())
		}
		if math.Abs(b.TotalUS()-latUS) > latUS/100+500 {
			t.Fatalf("req %d: event-derived total %vµs vs response latency %vµs", b.Req, b.TotalUS(), latUS)
		}
	}
	if checked < n {
		t.Fatalf("only %d/%d requests fully traced (ring too small?)", checked, n)
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

// TestDepths checks the live queue-depth surface reflects momentary
// occupancy while the server is saturated.
func TestDepths(t *testing.T) {
	opts := tracedOptions(1, 0, 1024)
	opts.QueueBound = 1
	s := New(&spinHandler{}, opts)
	s.Start()
	defer s.Stop()
	const n = 8
	chans := make([]<-chan Response, 0, n)
	for i := 0; i < n; i++ {
		chans = append(chans, s.Submit(5*time.Millisecond))
	}
	sawBusy := false
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		d := s.Depths()
		if len(d.Workers) != 1 {
			t.Fatalf("worker depth slice = %v", d.Workers)
		}
		if d.Workers[0] >= 1 && d.Submit+d.Central+d.Workers[0] >= 2 {
			sawBusy = true
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	if !sawBusy {
		t.Fatal("never observed queue depth under saturation")
	}
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

func TestTracerWorkerMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New must panic on tracer/worker mismatch")
		}
	}()
	New(&spinHandler{}, Options{Workers: 2, Tracer: obs.NewTracer(3, 64)})
}
