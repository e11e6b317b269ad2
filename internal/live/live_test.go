package live

import (
	"errors"
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

func TestHandlerPanicBecomesError(t *testing.T) {
	h := panicHandler{}
	s := New(h, testOptions(1, 0))
	s.Start()
	defer s.Stop()
	resp := s.Do("boom")
	if resp.Err == nil {
		t.Fatal("handler panic not converted to error")
	}
}

type panicHandler struct{}

func (panicHandler) Setup()          {}
func (panicHandler) SetupWorker(int) {}
func (panicHandler) Handle(*Ctx, any) (any, error) {
	panic("boom")
}

func TestWorkConservingDispatcherRunsRequests(t *testing.T) {
	h := &spinHandler{}
	opts := testOptions(1, 200*time.Microsecond)
	opts.WorkConserving = true
	opts.QueueBound = 1
	s := New(h, opts)
	s.Start()

	// Flood a single k=1 worker so the dispatcher must pitch in.
	const n = 64
	var chans []<-chan Response
	for i := 0; i < n; i++ {
		chans = append(chans, s.Submit(300*time.Microsecond))
	}
	dispatcherRun := 0
	for _, ch := range chans {
		resp := <-ch
		if resp.Err != nil {
			t.Fatal(resp.Err)
		}
		if resp.OnDispatcher {
			dispatcherRun++
		}
	}
	s.Stop()
	if dispatcherRun == 0 {
		t.Fatal("work-conserving dispatcher never completed a request under overload")
	}
	if got := s.Stats().DispatcherRun; got != uint64(dispatcherRun) {
		t.Fatalf("DispatcherRun counter %d != observed %d", got, dispatcherRun)
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
