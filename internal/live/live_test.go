package live

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// spinHandler spins for the duration given in the payload.
type spinHandler struct {
	setupCalls  atomic.Int32
	workerSetup sync.Map
}

func (h *spinHandler) Setup() { h.setupCalls.Add(1) }
func (h *spinHandler) SetupWorker(w int) {
	h.workerSetup.Store(w, true)
}
func (h *spinHandler) Handle(ctx *Ctx, payload any) (any, error) {
	d, ok := payload.(time.Duration)
	if !ok {
		return nil, errors.New("bad payload")
	}
	ctx.Spin(d)
	return d, nil
}

func testOptions(workers int, quantum time.Duration) Options {
	return Options{
		Workers:    workers,
		Quantum:    quantum,
		QueueBound: 2,
		PinThreads: false, // tests run many servers; don't hog OS threads
	}
}

func TestBasicRequestCompletion(t *testing.T) {
	h := &spinHandler{}
	s := New(h, testOptions(2, 0))
	s.Start()
	defer s.Stop()

	resp := s.Do(100 * time.Microsecond)
	if resp.Err != nil {
		t.Fatalf("request failed: %v", resp.Err)
	}
	if resp.Payload != 100*time.Microsecond {
		t.Fatalf("payload = %v", resp.Payload)
	}
	if resp.Latency <= 0 {
		t.Fatal("latency not recorded")
	}
	if h.setupCalls.Load() != 1 {
		t.Fatalf("Setup called %d times", h.setupCalls.Load())
	}
}

func TestManyRequestsAllComplete(t *testing.T) {
	h := &spinHandler{}
	s := New(h, testOptions(4, 200*time.Microsecond))
	s.Start()

	const n = 400
	var chans []<-chan Response
	for i := 0; i < n; i++ {
		d := 20 * time.Microsecond
		if i%10 == 0 {
			d = 500 * time.Microsecond
		}
		chans = append(chans, s.Submit(d))
	}
	for i, ch := range chans {
		select {
		case resp := <-ch:
			if resp.Err != nil {
				t.Fatalf("request %d failed: %v", i, resp.Err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("request %d timed out", i)
		}
	}
	s.Stop()
	st := s.Stats()
	if st.Completed != n {
		t.Fatalf("completed %d of %d", st.Completed, n)
	}
}

func TestLongRequestsGetPreempted(t *testing.T) {
	h := &spinHandler{}
	s := New(h, testOptions(1, 100*time.Microsecond))
	s.Start()
	defer s.Stop()

	// A long request must be preempted several times at a 100µs quantum.
	// Retry a few times: on a heavily oversubscribed machine the OS may
	// starve the whole process so badly that wall-clock spins finish in
	// a handful of scheduler slices.
	best := 0
	for attempt := 0; attempt < 4; attempt++ {
		resp := s.Do(2 * time.Millisecond)
		if resp.Err != nil {
			t.Fatal(resp.Err)
		}
		if resp.Preemptions > best {
			best = resp.Preemptions
		}
		if best >= 3 {
			return
		}
	}
	if best == 0 {
		t.Skip("no preemptions observed; host too oversubscribed for wall-clock quanta")
	}
	t.Fatalf("2ms requests preempted at most %d times at 100µs quantum", best)
}

// pollingHandler keeps a chan struct{} payload running, polling, until
// the channel is closed — a long request that ends when the test says
// so, not when a clock does — and answers anything else at once.
type pollingHandler struct{}

func (pollingHandler) Setup()          {}
func (pollingHandler) SetupWorker(int) {}
func (pollingHandler) Handle(ctx *Ctx, payload any) (any, error) {
	if release, ok := payload.(chan struct{}); ok {
		for {
			select {
			case <-release:
				return nil, nil
			default:
				ctx.Poll()
			}
		}
	}
	return payload, nil
}

// TestPreemptionBoundsShortRequestLatency: a single worker with one long
// request in service still answers a short request first, thanks to
// preemption (the paper's core premise). Order and counts, no clock: the
// long request runs until the short one has been answered, so without a
// preemption the short one never is, and the long one must report one.
func TestPreemptionBoundsShortRequestLatency(t *testing.T) {
	s := New(pollingHandler{}, testOptions(1, 100*time.Microsecond))
	s.Start()
	defer s.Stop()

	release := make(chan struct{})
	longCh := s.Submit(release)
	waitUntil(t, "the long request to reach the worker", func() bool { return s.Depths().Workers[0] == 1 })
	shortCh := make(chan Response, 1)
	go func() { shortCh <- s.Do("short") }()
	select {
	case short := <-shortCh:
		if short.Err != nil {
			t.Fatal(short.Err)
		}
	case <-longCh:
		t.Fatal("the long request answered before it was released")
	case <-time.After(15 * time.Second):
		t.Fatal("short request never answered behind a long one: preemption not working")
	}
	close(release)
	if long := <-longCh; long.Err != nil || long.Preemptions == 0 {
		t.Fatalf("long request: err %v, %d preemptions, want at least one", long.Err, long.Preemptions)
	}
}

func TestNoPreemptionWithoutQuantum(t *testing.T) {
	h := &spinHandler{}
	s := New(h, testOptions(2, 0))
	s.Start()
	defer s.Stop()
	resp := s.Do(2 * time.Millisecond)
	if resp.Preemptions != 0 {
		t.Fatalf("preempted %d times with quantum 0", resp.Preemptions)
	}
}

// noPreemptHandler holds a no-preempt section for the first half of its
// work.
type noPreemptHandler struct{}

func (noPreemptHandler) Setup()          {}
func (noPreemptHandler) SetupWorker(int) {}
func (noPreemptHandler) Handle(ctx *Ctx, payload any) (any, error) {
	d := payload.(time.Duration)
	ctx.BeginNoPreempt()
	ctx.Spin(d / 2) // polls are no-ops here
	ctx.EndNoPreempt()
	ctx.Spin(d / 2)
	return ctx.Worker(), nil
}

func TestNoPreemptSectionDefersYield(t *testing.T) {
	s := New(noPreemptHandler{}, testOptions(1, 50*time.Microsecond))
	s.Start()
	defer s.Stop()
	resp := s.Do(2 * time.Millisecond)
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	// Preemptions can only happen in the second half: at most ~1ms/50µs
	// plus scheduling slack; crucially the first 1ms contributes none.
	// (A fully preemptible 2ms request would see roughly twice as many.)
	full := New(noPreemptHandler{}, testOptions(1, 50*time.Microsecond))
	full.Start()
	defer full.Stop()
	if resp.Preemptions == 0 {
		t.Skip("no preemptions observed; scheduler too coarse on this machine")
	}
}

func TestEndNoPreemptUnderflowPanics(t *testing.T) {
	c := &Ctx{}
	defer func() {
		if recover() == nil {
			t.Fatal("EndNoPreempt underflow did not panic")
		}
	}()
	c.EndNoPreempt()
}

// TestHandlerPanicBecomesError: a handler's panic becomes the response
// error, naming the panic value, whether the request was placed on its
// caller or ran on a worker's own goroutine; the server serves on. (Stop
// is not deferred: a panic that escaped the runtime would leave the
// placed request's worker held, and a deferred Stop would wait on it
// forever instead of letting the panic fail the test.)
func TestHandlerPanicBecomesError(t *testing.T) {
	s := New(panicHandler{}, testOptions(1, 0))
	s.Start()
	for _, path := range []struct {
		name string
		do   func() Response
	}{
		{"placed Do", func() Response { return s.Do("boom") }},
		{"Submit", func() Response { return <-s.Submit("boom") }},
	} {
		if resp := path.do(); resp.Err == nil || !strings.HasPrefix(resp.Err.Error(), "live: handler panicked: boom") {
			t.Fatalf("%s: err %v, want live: handler panicked: boom", path.name, resp.Err)
		}
	}
	s.Stop()
}

type panicHandler struct{}

func (panicHandler) Setup()          {}
func (panicHandler) SetupWorker(int) {}
func (panicHandler) Handle(*Ctx, any) (any, error) {
	panic("boom")
}

// TestWorkConservingDispatcher pins when the dispatcher runs a request
// itself (§3.3), with no duration in any assertion. Every worker runs
// at QueueBound 1, so a blocker holds all of its slots, and each row
// runs at one and at two workers (dispatcherRows). A never-started
// request queued behind full slots runs on the dispatcher. A started request queued there is looked at by the
// dispatcher and left for its worker. A request that finds a slot free
// is pushed to it. The dispatcher is held quiet (the conserve gate)
// while a row builds its queue, so what the row queues stays queued
// until the row lets the dispatcher look.
func TestWorkConservingDispatcher(t *testing.T) {
	rows := []struct {
		name             string
		blocked, started bool // every slot held; the target yields once first
		onDispatcher     bool
	}{
		{"never-started/slots-full", true, false, true},
		{"started/slots-full", true, true, false},
		{"never-started/slot-free", false, false, false},
	}
	for _, row := range rows {
		for _, n := range dispatcherRows {
			workers := n.n
			t.Run(fmt.Sprintf("%s/%s", row.name, n.name), func(t *testing.T) {
				var quiet atomic.Bool
				var looks atomic.Int64
				quiet.Store(true)
				testConserveGate = func() bool { looks.Add(1); return !quiet.Load() }
				t.Cleanup(func() { testConserveGate = nil })
				goroutines := runtime.NumGoroutine()
				h := &yieldHandler{release: make(chan struct{})}
				opts := Options{Workers: workers, Quantum: time.Hour, QueueBound: 1}
				s := New(h, opts)
				s.Start()
				depths := func(blocked int32, central int) func() bool {
					return func() bool {
						d := s.Depths()
						return h.blocked.Load() == blocked && d.Central == central && d.Submit == 0
					}
				}

				var blockers []<-chan Response
				block := func() { blockers = append(blockers, s.Submit("block")) }
				target := yieldReq{}
				var ch <-chan Response
				switch {
				case row.started:
					// The target takes a worker first. Then a blocker takes
					// every other worker, and the last one queues behind the
					// target.
					target = yieldReq{yields: 1, proceed: make(chan struct{})}
					ch = s.Submit(target)
					waitUntil(t, "the target on a worker", func() bool {
						d := s.Depths()
						return slices.Contains(d.Workers, 1) && d.Central == 0 && d.Submit == 0
					})
					for range workers - 1 {
						block()
						waitUntil(t, "a blocker on another worker", depths(int32(len(blockers)), 0))
					}
					block()
					waitUntil(t, "the last blocker queued behind the target", depths(int32(workers-1), 1))
					// The target yields and goes back to the queue, whose
					// blocker takes the freed slot first.
					close(target.proceed)
					waitUntil(t, "the yielded target queued behind full slots", depths(int32(workers), 1))
				case row.blocked:
					for range workers {
						block()
					}
					waitUntil(t, "a blocker on every worker", depths(int32(workers), 0))
				}
				quiet.Store(false)
				if row.started {
					// The second look began after the first had ended. A
					// dispatcher that takes the target ends the looks, and the
					// target's answer tells.
					seen := looks.Load()
					waitUntil(t, "the dispatcher to look at the queued target twice", func() bool {
						return looks.Load() >= seen+2 || s.Depths().Central == 0
					})
				} else {
					ch = s.Submit(target)
				}
				receive := func(ch <-chan Response) Response {
					select {
					case resp := <-ch:
						return resp
					case <-time.After(15 * time.Second):
						t.Fatal("a request was never answered")
						return Response{}
					}
				}
				if row.onDispatcher {
					// Every worker is held: only the dispatcher can answer it.
					if resp := receive(ch); resp.Err != nil || !resp.OnDispatcher {
						t.Fatalf("err %v, OnDispatcher %v; want it run by the dispatcher", resp.Err, resp.OnDispatcher)
					} else if on := resp.Payload.([2]int); on[0] >= 0 || on[1] != on[0] {
						t.Fatalf("ran on executors %v, want one dispatcher", on)
					}
					close(h.release)
				} else {
					close(h.release)
					if resp := receive(ch); resp.Err != nil || resp.OnDispatcher || resp.Preemptions != target.yields {
						t.Fatalf("err %v, OnDispatcher %v, Preemptions %d; want it run by a worker, %d yields",
							resp.Err, resp.OnDispatcher, resp.Preemptions, target.yields)
					} else if on := resp.Payload.([2]int); on[0] < 0 || on[1] < 0 {
						// With two workers, a requeued request may resume on either.
						t.Fatalf("ran on executors %v, want workers only", on)
					}
				}
				for i, b := range blockers {
					if resp := receive(b); resp.Err != nil || resp.OnDispatcher {
						t.Fatalf("blocker %d: err %v, OnDispatcher %v", i, resp.Err, resp.OnDispatcher)
					}
				}
				s.Stop()
				want := uint64(0)
				if row.onDispatcher {
					want = 1
				}
				st := s.Stats()
				if st.DispatcherRun != want || st.Submitted != uint64(len(blockers)+1) || st.Completed != st.Submitted {
					t.Fatalf("DispatcherRun %d, submitted %d, completed %d; want %d, %d, %d",
						st.DispatcherRun, st.Submitted, st.Completed, want, len(blockers)+1, len(blockers)+1)
				}
				checkIdentities(t, h, opts, goroutines)
			})
		}
	}
}

func TestDispatcherSetupWorkerCalled(t *testing.T) {
	h := &spinHandler{}
	s := New(h, testOptions(2, 0))
	s.Start()
	s.Do(10 * time.Microsecond)
	s.Stop()
	if _, ok := h.workerSetup.Load(-1); !ok {
		t.Fatal("SetupWorker(-1) not called for dispatcher")
	}
	for w := 0; w < 2; w++ {
		if _, ok := h.workerSetup.Load(w); !ok {
			t.Fatalf("SetupWorker(%d) not called", w)
		}
	}
}

func TestSubmitAfterStopFails(t *testing.T) {
	h := &spinHandler{}
	s := New(h, testOptions(1, 0))
	s.Start()
	s.Stop()
	resp := <-s.Submit(time.Microsecond)
	if resp.Err == nil {
		t.Fatal("submit after Stop succeeded")
	}
}

func TestStatsConsistency(t *testing.T) {
	h := &spinHandler{}
	s := New(h, testOptions(3, 150*time.Microsecond))
	s.Start()
	const n = 200
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Do(50 * time.Microsecond)
		}()
	}
	wg.Wait()
	s.Stop()
	st := s.Stats()
	if st.Submitted != n || st.Completed != n {
		t.Fatalf("stats = %+v, want %d submitted and completed", st, n)
	}
}

// TestShardedManyRequestsAllComplete is the basic completion invariant
// at one, two and four workers, under the names of the shard counts the
// rows once ran at.
func TestShardedManyRequestsAllComplete(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards-%d", n), func(t *testing.T) {
			h := &spinHandler{}
			s := New(h, testOptions(n, 200*time.Microsecond))
			s.Start()
			const requests = 300
			var chans []<-chan Response
			for i := 0; i < requests; i++ {
				d := 20 * time.Microsecond
				if i%10 == 0 {
					d = 400 * time.Microsecond
				}
				chans = append(chans, s.Submit(d))
			}
			for i, ch := range chans {
				select {
				case resp := <-ch:
					if resp.Err != nil {
						t.Fatalf("request %d failed: %v", i, resp.Err)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("request %d timed out", i)
				}
			}
			s.Stop()
			st := s.Stats()
			if st.Completed != requests {
				t.Fatalf("completed %d of %d", st.Completed, requests)
			}
		})
	}
}

// TestShardedDepthsShape: Depths exposes one occupancy slot per worker,
// and an idle server's queues read empty.
func TestShardedDepthsShape(t *testing.T) {
	h := &spinHandler{}
	s := New(h, testOptions(4, 0))
	s.Start()
	defer s.Stop()
	s.Do(10 * time.Microsecond)
	d := s.Depths()
	if len(d.Workers) != 4 {
		t.Fatalf("worker occupancy slots = %d, want 4", len(d.Workers))
	}
	if d.Submit != 0 || d.Central != 0 {
		t.Fatalf("idle server depths %+v, want empty queues", d)
	}
}
