package live

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The timesharing rule: on a server with fewer processors than runtime
// loops (coopTimeshare > 0) request code hands its thread over every
// coopTimeshare polls, and a worker's slice also at any check that finds
// an accepted request waiting to be ingested. These tests count polls
// and hand-offs; none asserts anything about a duration.

// probeHandler runs func(*Ctx) any payloads on the executor it is given,
// holds a worker on a blocker until the blocker is closed, and answers
// anything else with its payload.
type probeHandler struct{ blocked atomic.Int32 }

type blocker chan struct{}

func (*probeHandler) Setup()          {}
func (*probeHandler) SetupWorker(int) {}
func (h *probeHandler) Handle(ctx *Ctx, payload any) (any, error) {
	switch p := payload.(type) {
	case func(*Ctx) any:
		return p(ctx), nil
	case blocker:
		h.blocked.Add(1)
		<-p
	}
	return payload, nil
}

// yieldLog records, by poll count, every hand-off a timesharing Poll
// makes for the rest of the test. The hook runs on the polling request's
// goroutine; read the log after that request has answered.
func yieldLog(t *testing.T) *[]int {
	var log []int
	testYieldHook = func(polls int) { log = append(log, polls) }
	t.Cleanup(func() { testYieldHook = nil })
	return &log
}

// withProcs sets GOMAXPROCS to n for the rest of the test. Set it before
// New: New derives coopTimeshare from it.
func withProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// receive returns ch's response, failing the test if none comes.
func receive(t *testing.T, what string, ch <-chan Response) Response {
	t.Helper()
	select {
	case resp := <-ch:
		return resp
	case <-time.After(15 * time.Second):
		t.Fatalf("%s was never answered", what)
		return Response{}
	}
}

// TestTimeshareYieldsToWaitingArrival runs two workers on one processor,
// so the dispatcher can ingest only while the running request has given
// the thread over. That request submits another just after a periodic
// hand-off and keeps polling: its next check, pollCheckEvery polls on,
// hands the thread over on demand, and the arrival is ingested before
// the next periodic hand-off. (A dispatcher that the arrival woke from
// its park may be resumed after the poller once, when the Go
// scheduler's fairness tick falls on that hand-off; the check after it
// hands over again. So ingestion is asserted before the period ends, and
// the hand-off at the first check.)
func TestTimeshareYieldsToWaitingArrival(t *testing.T) {
	withProcs(t, 1)
	yields := yieldLog(t)
	s := New(&probeHandler{}, Options{Workers: 2, Quantum: time.Hour})
	period := s.coopTimeshare
	if period != 4*pollCheckEvery {
		t.Fatalf("coopTimeshare %d on one processor, want %d", period, 4*pollCheckEvery)
	}
	s.Start()
	defer s.Stop()

	arrived := make(chan Response, 1)
	worker, submitted, ingested := 0, 0, 0
	probe := func(ctx *Ctx) any {
		worker = ctx.Worker()
		for ctx.polls <= period {
			ctx.Poll()
		}
		submitted = ctx.polls
		s.SubmitFunc("arrival", func(r Response) { arrived <- r })
		for s.disp.inbound.Load() > 0 && ctx.polls < submitted+4*period {
			ctx.Poll()
		}
		ingested = ctx.polls
		return nil
	}
	if resp := receive(t, "the polling request", s.Submit(probe)); resp.Err != nil || worker < 0 {
		t.Fatalf("err %v on executor %d; want a worker to run it", resp.Err, worker)
	}
	if resp := receive(t, "the arrival", arrived); resp.Err != nil {
		t.Fatalf("arrival: %v", resp.Err)
	}
	boundary := submitted - 1 // the periodic hand-off just before the submission
	if next := boundary + period; ingested >= next {
		t.Fatalf("arrival ingested by poll %d, want before the next periodic hand-off at poll %d (hand-offs %v)",
			ingested, next, *yields)
	}
	if first := boundary + pollCheckEvery; ingested >= first && !slices.Contains(*yields, first) {
		t.Fatalf("no hand-off at poll %d, the first check with the arrival waiting (hand-offs %v)", first, *yields)
	}
}

// TestTimeshareDispatcherSliceNoDemandYield runs a request on the
// work-conserving dispatcher (the one worker is held) and submits an
// arrival from it. The arrival stays uningested — the dispatcher is
// running the request — and the slice hands its thread over only on the
// periodic polls: giving it away on demand could not run the dispatcher.
func TestTimeshareDispatcherSliceNoDemandYield(t *testing.T) {
	withProcs(t, 1)
	yields := yieldLog(t)
	h := &probeHandler{}
	s := New(h, Options{Workers: 1, Quantum: time.Hour, QueueBound: 1})
	period := s.coopTimeshare
	if period == 0 {
		t.Fatal("coopTimeshare 0 on one processor")
	}
	s.Start()
	defer s.Stop()

	release := make(blocker)
	var once sync.Once
	free := func() { once.Do(func() { close(release) }) }
	defer free() // before Stop, which waits for the blocker
	held := s.Submit(release)
	waitUntil(t, "a blocker on the worker", func() bool { return h.blocked.Load() == 1 })
	arrived := make(chan Response, 1)
	worker, waiting := 0, false
	probe := func(ctx *Ctx) any {
		worker = ctx.Worker()
		s.SubmitFunc("arrival", func(r Response) { arrived <- r })
		for ctx.polls < 4*period {
			ctx.Poll()
		}
		waiting = s.disp.inbound.Load() > 0
		return nil
	}
	resp := receive(t, "the polling request", s.Submit(probe))
	if resp.Err != nil || !resp.OnDispatcher || worker >= 0 {
		t.Fatalf("err %v, OnDispatcher %v, executor %d; want the dispatcher to run it", resp.Err, resp.OnDispatcher, worker)
	}
	if !waiting {
		t.Fatal("the arrival was ingested while the dispatcher ran the request")
	}
	if want := []int{period, 2 * period, 3 * period, 4 * period}; !slices.Equal(*yields, want) {
		t.Fatalf("hand-offs at polls %v, want only the periodic ones %v", *yields, want)
	}
	free()
	receive(t, "the blocker", held)
	receive(t, "the arrival", arrived)
}

// TestTimeshareOffNeverYields gives every runtime loop a processor, so
// the server does not timeshare, and holds the dispatcher at its ingest
// while a worker's request submits an arrival and polls: the arrival
// waits at every check, and the request never hands its thread over.
func TestTimeshareOffNeverYields(t *testing.T) {
	const workers = 2
	withProcs(t, workers+2)
	yields := yieldLog(t)
	var hold atomic.Bool
	gate := make(chan struct{})
	testIngestGate = func() {
		if hold.Load() {
			<-gate
		}
	}
	t.Cleanup(func() { testIngestGate = nil })
	s := New(&probeHandler{}, Options{Workers: workers, Quantum: time.Hour})
	if s.coopTimeshare != 0 {
		t.Fatalf("coopTimeshare %d with a processor for every loop, want 0", s.coopTimeshare)
	}
	s.Start()
	defer s.Stop()

	arrived := make(chan Response, 1)
	worker, waiting := 0, false
	probe := func(ctx *Ctx) any {
		worker = ctx.Worker()
		hold.Store(true)
		s.SubmitFunc("arrival", func(r Response) { arrived <- r })
		for ctx.polls < 16*pollCheckEvery {
			ctx.Poll()
		}
		waiting = s.disp.inbound.Load() > 0
		close(gate)
		return nil
	}
	if resp := receive(t, "the polling request", s.Submit(probe)); resp.Err != nil || worker < 0 {
		t.Fatalf("err %v on executor %d; want a worker to run it", resp.Err, worker)
	}
	if !waiting {
		t.Fatal("the arrival was ingested past a held ingest gate")
	}
	if len(*yields) != 0 {
		t.Fatalf("hand-offs at polls %v, want none", *yields)
	}
	receive(t, "the arrival", arrived)
}
