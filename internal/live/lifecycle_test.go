package live

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSubmitAfterStopDeterministic: every submission after Stop has
// returned gets ErrServerStopped immediately — the contract the Stop
// doc comment promises. Pre-fix, Submit could instead block forever on
// a full buffer with no dispatcher left to drain it.
func TestSubmitAfterStopDeterministic(t *testing.T) {
	s := New(&spinHandler{}, testOptions(1, 0))
	s.Start()
	s.Stop()
	for i := 0; i < 100; i++ {
		select {
		case resp := <-s.Submit(time.Microsecond):
			if !errors.Is(resp.Err, ErrServerStopped) {
				t.Fatalf("post-stop submit err = %v, want ErrServerStopped", resp.Err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("post-stop submit hung")
		}
	}
	if st := s.Stats(); st.Rejected != 100 {
		t.Fatalf("Rejected = %d, want 100", st.Rejected)
	}
}

// TestSubmitNeverBlocksAgainstStop is the regression test for the
// Submit/Stop hang: submitters racing Stop on a tiny buffer. Pre-fix, a
// Submit that passed the stopped check could block forever sending into
// a buffer nobody drains, stranding the caller. Post-fix every Submit
// returns promptly and every returned channel delivers exactly one
// response.
func TestSubmitNeverBlocksAgainstStop(t *testing.T) {
	withSubmitBuffer(t, 2)
	for iter := 0; iter < 10; iter++ {
		s := New(&spinHandler{}, testOptions(1, 100*time.Microsecond))
		s.Start()

		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					ch := s.Submit(20 * time.Microsecond)
					select {
					case <-ch:
						select {
						case <-ch:
							t.Error("second response on one submission")
						default:
						}
					case <-time.After(10 * time.Second):
						t.Error("submission never answered")
						return
					}
				}
			}()
		}
		// Kept on purpose: each iteration lands Stop at another point of
		// the traffic, not a wait for it.
		time.Sleep(time.Duration(iter%4) * 500 * time.Microsecond)
		stopDone := make(chan struct{})
		go func() { s.Stop(); close(stopDone) }()
		wg.Wait()
		select {
		case <-stopDone:
		case <-time.After(10 * time.Second):
			t.Fatal("Stop hung")
		}
		if st := s.Stats(); st.Submitted != st.Completed {
			t.Fatalf("iter %d: submitted %d != completed %d (accepted request dropped)",
				iter, st.Submitted, st.Completed)
		}
	}
}

// TestDrainWindowNoTaskLoss is the regression test for the preemption
// requeue race: pre-fix, the worker released its occupancy before
// re-submitting a preempted task, so the dispatcher could observe an
// idle server mid-hand-off, declare the drain complete, and exit —
// losing the task and hanging both its caller and Stop. Heavy
// preemption traffic through a size-1 buffer makes the window wide.
func TestDrainWindowNoTaskLoss(t *testing.T) {
	withSubmitBuffer(t, 1)
	for iter := 0; iter < 30; iter++ {
		s := New(&spinHandler{}, testOptions(1, 50*time.Microsecond))
		s.Start()

		var chans []<-chan Response
		for i := 0; i < 6; i++ {
			chans = append(chans, s.Submit(300*time.Microsecond))
		}
		// Kept on purpose: each iteration lands Stop at another point of
		// the preemption traffic.
		time.Sleep(time.Duration(iter%5) * 100 * time.Microsecond)
		stopDone := make(chan struct{})
		go func() { s.Stop(); close(stopDone) }()

		for i, ch := range chans {
			select {
			case <-ch:
			case <-time.After(10 * time.Second):
				t.Fatalf("iter %d: request %d lost in the drain window", iter, i)
			}
		}
		select {
		case <-stopDone:
		case <-time.After(10 * time.Second):
			t.Fatalf("iter %d: Stop hung", iter)
		}
	}
}

// TestDrainWindowNoTaskLossGated is the deterministic version of the
// drain-window regression: the requeue gate holds the worker identity
// between a request's yield and its re-submit while Stop runs. Pre-fix
// the worker had already released its occupancy, so the dispatcher
// declared the server drained, exited, and the task was lost — this test
// then fails its 10s receive. Post-fix the occupancy is held across the
// hand-off, so the dispatcher waits and the request completes. The gate
// needs a preemption, not a quantum: the request signals itself
// (yieldNow), so no clock decides whether the test runs.
func TestDrainWindowNoTaskLossGated(t *testing.T) {
	entered := make(chan struct{}, 64)
	release := make(chan struct{})
	testRequeueGate = func() {
		entered <- struct{}{}
		<-release
	}
	defer func() { testRequeueGate = nil }()

	withSubmitBuffer(t, 1)
	s := New(&yieldHandler{}, testOptions(1, time.Hour))
	s.Start()

	ch := s.Submit(yieldReq{yields: 1})
	select {
	case <-entered: // the request yielded and is mid-hand-off
	case <-time.After(10 * time.Second):
		t.Fatal("a self-signalled yield never reached the requeue gate")
	}
	stopDone := make(chan struct{})
	go func() { s.Stop(); close(stopDone) }()
	// Kept on purpose: a buggy dispatcher's drain needs this window to
	// finish and lose the task; a correct Stop waits for the hand-off.
	time.Sleep(2 * time.Millisecond)
	close(release)

	select {
	case resp := <-ch:
		if resp.Err != nil {
			t.Fatalf("preempted request failed: %v", resp.Err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("task lost in the drain window")
	}
	select {
	case <-stopDone:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop hung")
	}
}

// TestSubmitStopRaceGated is the deterministic version of the
// Submit/Stop hang: the submit gate holds a submission between its
// stop check and its enqueue while Stop runs to completion. Pre-fix the
// submission then landed in a buffer nobody drains and the caller hung
// forever. Post-fix Submit holds the read lock across the hand-off, so
// Stop cannot begin until the submission is safely enqueued, and the
// request is drained normally.
func TestSubmitStopRaceGated(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	testSubmitGate = func() {
		close(entered)
		<-release
	}
	defer func() { testSubmitGate = nil }()

	s := New(&spinHandler{}, testOptions(1, 0))
	s.Start()

	var ch <-chan Response
	submitted := make(chan struct{})
	go func() {
		ch = s.Submit(10 * time.Microsecond)
		close(submitted)
	}()
	<-entered // submission passed the stop check, now gated
	stopDone := make(chan struct{})
	go func() { s.Stop(); close(stopDone) }()
	// Kept on purpose: a buggy Stop completes in this window and strands
	// the gated submission; a fixed Stop blocks on the read lock.
	time.Sleep(2 * time.Millisecond)
	close(release)
	<-submitted

	select {
	case resp := <-ch:
		if resp.Err != nil {
			t.Fatalf("racing submission failed: %v", resp.Err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("racing submission stranded: response never delivered")
	}
	select {
	case <-stopDone:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop hung")
	}
}

// TestQueueFullRejected: a full submit buffer rejects immediately with
// ErrQueueFull instead of blocking the caller — explicit backpressure.
func TestQueueFullRejected(t *testing.T) {
	withSubmitBuffer(t, 1)
	s := New(&spinHandler{}, testOptions(1, 0))
	// Not started: nothing drains the buffer, so the second submission
	// deterministically finds it full.
	first := s.Submit(time.Microsecond)
	select {
	case resp := <-s.Submit(time.Microsecond):
		if !errors.Is(resp.Err, ErrQueueFull) {
			t.Fatalf("err = %v, want ErrQueueFull", resp.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("submit on a full buffer blocked")
	}
	if st := s.Stats(); st.Rejected != 1 || st.Submitted != 1 {
		t.Fatalf("stats = %+v, want 1 submitted 1 rejected", st)
	}
	s.Start()
	if resp := <-first; resp.Err != nil {
		t.Fatalf("buffered request failed: %v", resp.Err)
	}
	s.Stop()
}

// TestRequestTimeoutExpiresQueued: requests stuck behind a hog on a
// k=1, no-preemption server expire with ErrDeadlineExceeded instead of
// waiting out the hog.
func TestRequestTimeoutExpiresQueued(t *testing.T) {
	quietDispatcher(t)
	opts := testOptions(1, 0)
	opts.QueueBound = 1
	opts.RequestTimeout = 5 * time.Millisecond
	s := New(&spinHandler{}, opts)
	s.Start()
	defer s.Stop()

	hog := s.Submit(80 * time.Millisecond)
	waitUntil(t, "the hog on the worker", func() bool {
		d := s.Depths()
		return d.Workers[0] == 1 && d.Central == 0 && d.Submit == 0
	})
	var rest []<-chan Response
	for i := 0; i < 4; i++ {
		rest = append(rest, s.Submit(10*time.Microsecond))
	}
	expired := 0
	for i, ch := range rest {
		select {
		case resp := <-ch:
			if errors.Is(resp.Err, ErrDeadlineExceeded) {
				expired++
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("queued request %d never answered", i)
		}
	}
	if expired == 0 {
		t.Fatal("no queued request expired behind an 80ms hog with a 5ms deadline")
	}
	if resp := <-hog; resp.Err != nil {
		t.Fatalf("hog failed: %v", resp.Err)
	}
	if st := s.Stats(); st.Expired != uint64(expired) {
		t.Fatalf("Expired = %d, observed %d", st.Expired, expired)
	}
}

// TestDrainTimeoutAbortsPending: Stop with a DrainTimeout returns in
// bounded time even with a very long polling request in flight; the
// aborted request gets ErrServerStopped.
func TestDrainTimeoutAbortsPending(t *testing.T) {
	opts := testOptions(1, 100*time.Microsecond)
	opts.DrainTimeout = 30 * time.Millisecond
	s := New(&spinHandler{}, opts)
	s.Start()

	long := s.Submit(10 * time.Second) // polls, but won't finish on its own
	waitUntil(t, "the long request to reach the worker", func() bool { return s.Depths().Workers[0] == 1 })
	var queued []<-chan Response
	for i := 0; i < 4; i++ {
		queued = append(queued, s.Submit(time.Millisecond))
	}

	start := time.Now()
	s.Stop()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Stop took %v with a 30ms DrainTimeout", elapsed)
	}
	select {
	case resp := <-long:
		if !errors.Is(resp.Err, ErrServerStopped) {
			t.Fatalf("aborted request err = %v, want ErrServerStopped", resp.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("aborted request never answered")
	}
	for i, ch := range queued {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("queued request %d never answered after drain abort", i)
		}
	}
	if st := s.Stats(); st.Submitted != st.Completed {
		t.Fatalf("submitted %d != completed %d after aborted drain", st.Submitted, st.Completed)
	}
}

// TestGracefulStopCompletesAccepted: with no DrainTimeout, Stop
// completes every accepted request successfully — none are dropped or
// failed.
func TestGracefulStopCompletesAccepted(t *testing.T) {
	s := New(&spinHandler{}, testOptions(2, 100*time.Microsecond))
	s.Start()
	var chans []<-chan Response
	for i := 0; i < 50; i++ {
		chans = append(chans, s.Submit(200*time.Microsecond))
	}
	s.Stop()
	for i, ch := range chans {
		select {
		case resp := <-ch:
			if resp.Err != nil {
				t.Fatalf("request %d failed during graceful drain: %v", i, resp.Err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("request %d dropped during graceful drain", i)
		}
	}
	if st := s.Stats(); st.Submitted != 50 || st.Completed != 50 {
		t.Fatalf("stats = %+v, want 50/50", st)
	}
}

// yieldReq is a request that yields exactly when told to, so the
// lifecycle rows need no wall-clock quantum: it yields `yields` times and
// completes, or — negative — keeps yielding until the server retires it.
// With expire set its deadline passes while it is parked after its first
// yield, whatever the clock says: the handler backdates it on the way
// out. With await set it does not force its yields but waits, however
// long the host makes that, for its slice to run out of quantum — for
// tests that are about the real expiry. With spin set it first
// spins that long, polling: time in which a request that must not be
// signalled would be. With proceed set it first waits, without
// polling, for proceed to close. It carries a hint and a class so the
// srpt and cascade rows order it by something.
type yieldReq struct {
	yields  int
	expire  bool
	await   bool
	spin    time.Duration
	class   SLOClass
	proceed chan struct{}
}

func (r yieldReq) ServiceHint() time.Duration { return time.Millisecond }
func (r yieldReq) SLOClass() SLOClass         { return r.class }

// yieldNow makes this Poll yield whatever the clock says: it backdates
// the slice's start by the slice's whole quantum and makes this Poll the
// one that checks it. Its executor's slice is the request's own while it
// runs (the next one's start is stamped afresh). The servers these
// handlers run under have an hour-long quantum, so nothing else ever
// ends a slice.
func yieldNow(ctx *Ctx) {
	q := ctx.srv.quantumFor(ctx.task.class, false)
	if q <= 0 {
		q = ctx.ex.defaultSlice
	}
	ctx.ex.sliceStart = nanotime() - int64(q)
	ctx.polls |= pollCheckEvery - 1
	ctx.Poll()
}

// awaitSignal yields when the slice runs out by itself: it polls until
// a check has found the quantum spent and Poll has yielded, instead of
// spinning for a time the quantum "must" interrupt, so a slow host makes
// the test slower, not wrong; half a minute without a yield is a slice
// that never expires, reported as the request's error.
func awaitSignal(ctx *Ctx) error {
	deadline := time.Now().Add(30 * time.Second)
	for yielded := ctx.task.preempts; ctx.task.preempts == yielded; runtime.Gosched() {
		if time.Now().After(deadline) {
			return errors.New("no preemption in 30s")
		}
		ctx.Poll()
	}
	return nil
}

// quietDispatcher keeps every dispatcher from running a request itself
// for the rest of the test: for a test that holds every worker and then
// needs what it queues to stay queued, or to reach a worker.
func quietDispatcher(t *testing.T) {
	testConserveGate = func() bool { return false }
	t.Cleanup(func() { testConserveGate = nil })
}

// withSubmitBuffer makes the servers the test builds from here on take
// an ingress buffer of n requests.
func withSubmitBuffer(t *testing.T, n int) {
	testSubmitBuffer = n
	t.Cleanup(func() { testSubmitBuffer = 0 })
}

// yieldHandler blocks on "block" payloads (holding a worker without
// polling), panics on "panic", and runs yieldReq payloads behind a
// deferred call, so a test can tell that a retired handler unwound. It
// counts SetupWorker calls per identity, and the yieldReq requests that
// have come back from their first yield.
type yieldHandler struct {
	release chan struct{}
	blocked atomic.Int32 // blockers whose handler has started
	unwound atomic.Int32
	yielded atomic.Int32
	mu      sync.Mutex
	setups  map[int]int
}

func (h *yieldHandler) Setup() {}
func (h *yieldHandler) SetupWorker(id int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.setups == nil {
		h.setups = map[int]int{}
	}
	h.setups[id]++
}
func (h *yieldHandler) Handle(ctx *Ctx, payload any) (any, error) {
	req, ok := payload.(yieldReq)
	if !ok {
		if payload == "panic" {
			panic("yieldHandler: told to")
		}
		h.blocked.Add(1)
		<-h.release
		return payload, nil
	}
	defer h.unwound.Add(1)
	first := ctx.Worker()
	if req.expire {
		// The running request owns its task, and nothing reads a
		// deadline but the executor that next dequeues it.
		ctx.task.deadline = nanotime() - int64(time.Hour)
	}
	ctx.Spin(req.spin)
	if req.proceed != nil {
		<-req.proceed
	}
	for i := 0; i != req.yields; i++ {
		if !req.await {
			yieldNow(ctx)
		} else if err := awaitSignal(ctx); err != nil {
			return nil, err
		}
		if i == 0 {
			h.yielded.Add(1)
		}
	}
	return [2]int{first, ctx.Worker()}, nil
}

// checkIdentities asserts what must hold of a stopped server however
// many times its identities changed hands: SetupWorker ran exactly once
// per worker and per dispatcher, and every goroutine the server started
// — loops, successors, detached request goroutines — is gone (the last
// of them may still be returning when Stop does, hence the wait).
func checkIdentities(t *testing.T, h *yieldHandler, opts Options, goroutinesBefore int) {
	t.Helper()
	opts = opts.withDefaults()
	h.mu.Lock()
	for id := -1; id < opts.Workers; id++ {
		if h.setups[id] != 1 {
			t.Errorf("SetupWorker(%d) ran %d times, want once per identity", id, h.setups[id])
		}
	}
	if len(h.setups) != 1+opts.Workers {
		t.Errorf("SetupWorker ran for identities %v, want the dispatcher and %d workers", h.setups, opts.Workers)
	}
	h.mu.Unlock()
	waitUntil(t, "the server's goroutines to exit", func() bool {
		return runtime.NumGoroutine() <= goroutinesBefore
	})
}

// TestDispatcherRunLifecycle drives the slice runner, the identity
// hand-off and the retire path through the work-conserving dispatcher:
// with every worker held by a blocker at QueueBound 1, a request can
// only run on the dispatcher, yields there — the goroutine that
// was the dispatcher keeps it, a successor carries the loop on — and is
// parked in the saved slot, from where it completes after a set number
// of yields, expires, or is aborted by the drain deadline. Every row
// checks the same invariants: exactly one response per submission,
// Submitted == Completed, Expired and Aborted equal to the number of
// responses carrying the matching error, handler defers run, the
// request never leaves the dispatcher that started it, SetupWorker once
// per identity, and no goroutine left behind.
func TestDispatcherRunLifecycle(t *testing.T) { runLifecycleRows(t, true, false) }

// TestWorkerRunLifecycle is the same table with the requests on the
// workers: a yield hands the worker identity to a successor, the request
// goes back through the ingress, and it completes, expires or is
// aborted from wherever it is at the time. It never runs on the
// dispatcher again: that runs only requests that have not started.
func TestWorkerRunLifecycle(t *testing.T) { runLifecycleRows(t, false, false) }

// runLifecycleRows is the table; fromPark starts every row from a parked
// dispatcher (TestParkedStartLifecycle). Each row runs at one and at
// two workers (dispatcherRows): one target per worker on the workers,
// one target on the dispatcher.
func runLifecycleRows(t *testing.T, onDispatcher, fromPark bool) {
	const yields = 3
	// Neither timeout is a measurement: the hour-long RequestTimeout only
	// makes every task deadline-bearing (the expiring request backdates
	// its own), and the drain deadline's length changes how long the
	// aborted rows take, not what happens.
	outcomes := []struct {
		name    string
		req     yieldReq
		tune    func(*Options)
		wantErr error
	}{
		{"completes", yieldReq{yields: yields}, func(*Options) {}, nil},
		{"expires", yieldReq{yields: -1, expire: true}, func(o *Options) { o.RequestTimeout = time.Hour }, ErrDeadlineExceeded},
		{"aborted", yieldReq{yields: -1}, func(o *Options) { o.DrainTimeout = 5 * time.Millisecond }, ErrServerStopped},
	}
	for _, pol := range []string{PolicyFCFS, PolicySRPT, PolicyCascade, PolicyCascadeSRPT} {
		for _, row := range dispatcherRows {
			for _, oc := range outcomes {
				for _, pin := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s/%s", pol, row.name, oc.name)
					if pin {
						name += "/pinned"
					}
					t.Run(name, func(t *testing.T) {
						goroutines := runtime.NumGoroutine()
						h := &yieldHandler{release: make(chan struct{})}
						opts := Options{Workers: row.n, Policy: pol, Quantum: time.Hour,
							QueueBound: 1, PinThreads: pin}
						oc.tune(&opts)
						var parks *parkWatch
						if fromPark {
							parks = watchParks(t)
						}
						s := New(h, opts)
						s.Start()
						if fromPark {
							parks.wait(t, s)
						}

						var chans []<-chan Response
						blockers, targets := 0, row.n
						if onDispatcher {
							blockers, targets = row.n, 1
							for i := 0; i < blockers; i++ {
								chans = append(chans, s.Submit("block"))
							}
							// Occupancy also counts a blocker still in its worker's
							// local queue, which a drain deadline would abort; wait
							// for every blocker's handler to have started too.
							waitUntil(t, "a blocker running on every worker", func() bool {
								d := s.Depths()
								for _, occ := range d.Workers {
									if occ != 1 {
										return false
									}
								}
								return d.Central == 0 && d.Submit == 0 && h.blocked.Load() == int32(blockers)
							})
						}
						target := oc.req
						target.class = ClassCritical
						for i := 0; i < targets; i++ {
							chans = append(chans, s.Submit(target))
						}

						stopDone := make(chan struct{})
						if oc.wantErr == ErrServerStopped {
							// Per target, not Stats().Preemptions: one target that
							// keeps yielding reaches any total on its own.
							waitUntil(t, "every target to have yielded", func() bool {
								return h.yielded.Load() == int32(targets)
							})
							go func() { s.Stop(); close(stopDone) }()
						}
						byErr := map[error]uint64{}
						var dispatcherOK, workerRun uint64
						receive := func(i int) (resp Response) {
							select {
							case resp = <-chans[i]:
							case <-time.After(15 * time.Second):
								t.Fatalf("submission %d never answered", i)
							}
							select {
							case <-chans[i]:
								t.Fatalf("submission %d answered twice", i)
							default:
							}
							byErr[resp.Err]++
							return resp
						}
						for i := blockers; i < len(chans); i++ {
							resp := receive(i)
							if resp.Err != oc.wantErr {
								t.Fatalf("target %d: err = %v, want %v", i, resp.Err, oc.wantErr)
							}
							// On the worker rows a target that has not started
							// may still run on the dispatcher: a yielding target
							// holds its worker until its requeue is sent, and a
							// conserving dispatcher that finds every worker full
							// in that window runs the other target itself. It is
							// then held to a dispatcher row's checks.
							if (onDispatcher && !resp.OnDispatcher) || resp.Preemptions == 0 {
								t.Fatalf("target %d: OnDispatcher=%v Preemptions=%d, want OnDispatcher=%v and at least one yield",
									i, resp.OnDispatcher, resp.Preemptions, onDispatcher)
							}
							if !resp.OnDispatcher {
								workerRun++
							}
							if resp.Err != nil {
								continue
							}
							if resp.Preemptions != yields {
								t.Fatalf("target %d: Preemptions = %d, want exactly the %d it signalled itself", i, resp.Preemptions, yields)
							}
							on := resp.Payload.([2]int)
							if resp.OnDispatcher {
								dispatcherOK++
								if on[0] >= 0 || on[1] != on[0] {
									t.Fatalf("target %d started on executor %d and ended on %d: dispatcher-run requests must not migrate", i, on[0], on[1])
								}
							} else if on[0] < 0 || on[1] < 0 {
								t.Fatalf("target %d started on executor %d and ended on %d: a started request stays on the workers", i, on[0], on[1])
							}
						}
						if !onDispatcher && workerRun == 0 {
							// The first target dispatched finds every worker idle.
							t.Fatalf("all %d targets ran on the dispatcher, want at least one on the workers", targets)
						}
						close(h.release)
						for i := 0; i < blockers; i++ {
							if resp := receive(i); resp.Err != nil {
								t.Fatalf("blocker %d: %v", i, resp.Err)
							}
						}
						if oc.wantErr != ErrServerStopped {
							go func() { s.Stop(); close(stopDone) }()
						}
						select {
						case <-stopDone:
						case <-time.After(15 * time.Second):
							t.Fatal("Stop hung")
						}

						st := s.Stats()
						if st.Submitted != uint64(len(chans)) || st.Submitted != st.Completed {
							t.Fatalf("submitted %d, completed %d, want both %d", st.Submitted, st.Completed, len(chans))
						}
						if st.Expired != byErr[ErrDeadlineExceeded] || st.Aborted != byErr[ErrServerStopped] {
							t.Fatalf("Expired=%d Aborted=%d, responses carried %d deadline / %d stopped errors",
								st.Expired, st.Aborted, byErr[ErrDeadlineExceeded], byErr[ErrServerStopped])
						}
						if st.DispatcherRun != dispatcherOK {
							t.Fatalf("DispatcherRun = %d, want %d (requests the dispatcher completed)", st.DispatcherRun, dispatcherOK)
						}
						if got := h.unwound.Load(); got != int32(targets) {
							t.Fatalf("%d handler defers ran, want %d", got, targets)
						}
						checkIdentities(t, h, opts, goroutines)
					})
				}
			}
		}
	}
}

// TestHandoffSelfSignalled drives the identity hand-off at volume and
// without a clock: every request yields exactly three times — the first
// yield passes its worker to a successor goroutine, the other two park
// on the task's channels — and must report exactly those three
// preemptions. However many times the identities changed hands,
// SetupWorker ran once for each, the server leaves no goroutine behind,
// and under PinThreads the hand-offs reuse threads instead of creating
// one each. A handler panic on the inline path — the worker's own stack
// — becomes that request's error and the worker keeps serving.
func TestHandoffSelfSignalled(t *testing.T) {
	for _, pin := range []bool{false, true} {
		t.Run(fmt.Sprintf("pinned=%v", pin), func(t *testing.T) {
			const requests, yields, clients = 2000, 3, 2
			goroutines := runtime.NumGoroutine()
			threads := pprof.Lookup("threadcreate").Count()
			h := &yieldHandler{}
			opts := testOptions(2, time.Hour)
			opts.PinThreads = pin
			s := New(h, opts)
			s.Start()

			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < requests/clients; i++ {
						if i%100 == 0 {
							if resp := s.Do("panic"); resp.Err == nil || resp.Preemptions != 0 {
								t.Errorf("panicking request: err=%v preemptions=%d, want an error and no yield", resp.Err, resp.Preemptions)
							}
						}
						resp := s.Do(yieldReq{yields: yields})
						if resp.Err != nil || resp.Preemptions != yields {
							t.Errorf("request: err=%v preemptions=%d, want %d", resp.Err, resp.Preemptions, yields)
							return
						}
					}
				}()
			}
			wg.Wait()
			s.Stop()

			st := s.Stats()
			if st.Submitted != st.Completed || st.Preemptions != requests*yields {
				t.Fatalf("submitted %d completed %d preemptions %d, want equal and %d", st.Submitted, st.Completed, st.Preemptions, requests*yields)
			}
			if got := h.unwound.Load(); got != requests {
				t.Fatalf("%d handler defers ran, want %d", got, requests)
			}
			checkIdentities(t, h, opts, goroutines)
			// One thread per hand-off would be 2000 here; measured, the
			// first pinned server grows the pool by about six threads and
			// later ones by none — the thread a yielding goroutine unpins
			// is the next successor's. The bound only has to tell those
			// apart.
			if grew := pprof.Lookup("threadcreate").Count() - threads; pin && grew > 64 {
				t.Fatalf("%d threads created over %d pinned hand-offs", grew, requests)
			}
		})
	}
}

// ledgerHandler is yieldHandler that also runs gatedYield requests, whose
// start the test can see.
type ledgerHandler struct{ *yieldHandler }

func (h ledgerHandler) Handle(ctx *Ctx, payload any) (any, error) {
	if g, ok := payload.(gatedYield); ok {
		return gatedYieldHandler{}.Handle(ctx, g)
	}
	return h.yieldHandler.Handle(ctx, payload)
}

// TestStatsLedgerLifecycle: whatever path a request takes, the counters
// balance exactly once the server has stopped — Submitted == Completed,
// each class's submitted == its completed, the classes sum to the
// totals, and every attempt is either submitted or rejected. One row per
// path, one request per class where the path allows several: placed Do
// and TryDo finishing inline (counted once, on both sides), a placed
// request that yields and finishes on a worker, a placed request retired
// by the drain abort after yielding, and one whose first yield comes
// after the abort (retired while its worker is still lent), a
// SubmitFunc through the ingress, requests rejected after Stop, and
// requests the dispatcher runs itself. No row measures a time.
func TestStatsLedgerLifecycle(t *testing.T) {
	classes := []SLOClass{ClassStandard, ClassCritical, ClassSheddable}
	rows := []struct {
		name   string
		placed bool // every request the row makes is placed: none takes the ingress
		drain  time.Duration
		// run drives the row's requests and returns how many it attempted.
		run func(t *testing.T, s *Server, h *yieldHandler) uint64
	}{
		{"placed Do inline", true, 0, func(t *testing.T, s *Server, h *yieldHandler) uint64 {
			for _, c := range classes {
				if resp := s.Do(yieldReq{class: c}); resp.Err != nil || resp.Preemptions != 0 {
					t.Fatalf("class %d: err %v, %d preemptions", c, resp.Err, resp.Preemptions)
				}
			}
			return uint64(len(classes))
		}},
		{"placed TryDo inline", true, 0, func(t *testing.T, s *Server, h *yieldHandler) uint64 {
			for _, c := range classes {
				resp, placed := s.TryDo(yieldReq{class: c}, func(Response) { t.Error("TryDo called back for a placed request") })
				if !placed || resp.Err != nil {
					t.Fatalf("class %d: placed %v, err %v", c, placed, resp.Err)
				}
			}
			return uint64(len(classes))
		}},
		{"placed, yields, finishes on a worker", true, 0, func(t *testing.T, s *Server, h *yieldHandler) uint64 {
			for _, c := range classes {
				if resp := s.Do(yieldReq{yields: 3, class: c}); resp.Err != nil || resp.Preemptions != 3 {
					t.Fatalf("class %d: err %v, %d preemptions", c, resp.Err, resp.Preemptions)
				}
			}
			return uint64(len(classes))
		}},
		{"placed, yields, retired by the drain abort", true, 5 * time.Millisecond, func(t *testing.T, s *Server, h *yieldHandler) uint64 {
			answered := make(chan Response, 1)
			go func() { answered <- s.Do(yieldReq{yields: -1, class: ClassCritical}) }()
			waitUntil(t, "the placed request to have yielded", func() bool { return h.yielded.Load() == 1 })
			s.Stop()
			if resp := <-answered; !errors.Is(resp.Err, ErrServerStopped) {
				t.Fatalf("err %v, want ErrServerStopped", resp.Err)
			}
			return 1
		}},
		{"placed, first yield after the drain abort", true, time.Millisecond, func(t *testing.T, s *Server, h *yieldHandler) uint64 {
			g := gatedYield{started: make(chan struct{}), proceed: make(chan struct{})}
			answered := make(chan Response, 1)
			go func() { answered <- s.Do(g) }()
			<-g.started // placed, and running as the worker
			stopped := make(chan struct{})
			go func() { s.Stop(); close(stopped) }()
			waitUntil(t, "the drain deadline to pass", s.abort.Load)
			close(g.proceed)
			if resp := <-answered; !errors.Is(resp.Err, ErrServerStopped) || resp.Preemptions != 1 {
				t.Fatalf("err %v, %d preemptions; want ErrServerStopped after one yield", resp.Err, resp.Preemptions)
			}
			<-stopped
			return 1
		}},
		{"SubmitFunc through the ingress", false, 0, func(t *testing.T, s *Server, h *yieldHandler) uint64 {
			answered := make(chan Response, len(classes))
			for _, c := range classes {
				s.SubmitFunc(yieldReq{class: c}, func(r Response) { answered <- r })
			}
			for range classes {
				if resp := <-answered; resp.Err != nil {
					t.Fatal(resp.Err)
				}
			}
			return uint64(len(classes))
		}},
		{"rejected after Stop", false, 0, func(t *testing.T, s *Server, h *yieldHandler) uint64 {
			s.Stop()
			answered := make(chan Response, len(classes))
			for _, c := range classes {
				if resp := s.Do(yieldReq{class: c}); !errors.Is(resp.Err, ErrServerStopped) {
					t.Fatalf("Do, class %d: err %v", c, resp.Err)
				}
				if _, placed := s.TryDo(yieldReq{class: c}, func(r Response) { answered <- r }); placed {
					t.Fatalf("TryDo, class %d: placed after Stop", c)
				}
				if resp := <-answered; !errors.Is(resp.Err, ErrServerStopped) {
					t.Fatalf("TryDo, class %d: err %v", c, resp.Err)
				}
			}
			return 2 * uint64(len(classes))
		}},
		{"dispatcher-run", false, 0, func(t *testing.T, s *Server, h *yieldHandler) uint64 {
			blocker := s.Submit("block")
			waitUntil(t, "the blocker to hold the worker", func() bool {
				return h.blocked.Load() == 1 && s.Depths().Workers[0] == 1
			})
			for _, c := range classes {
				if resp := s.Do(yieldReq{class: c}); resp.Err != nil || !resp.OnDispatcher {
					t.Fatalf("class %d: err %v, OnDispatcher %v", c, resp.Err, resp.OnDispatcher)
				}
			}
			close(h.release)
			if resp := <-blocker; resp.Err != nil {
				t.Fatal(resp.Err)
			}
			return 1 + uint64(len(classes))
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			h := &yieldHandler{release: make(chan struct{})}
			s := New(ledgerHandler{h}, Options{Workers: 1, Quantum: time.Hour, QueueBound: 1, DrainTimeout: row.drain})
			s.Start()
			attempted := row.run(t, s, h)
			s.Stop()
			if n := ingressSubmitted(s); row.placed && n != 0 {
				t.Fatalf("%d requests took the ingress", n)
			}

			st := s.Stats()
			if st.Submitted != st.Completed {
				t.Errorf("Submitted %d != Completed %d", st.Submitted, st.Completed)
			}
			var sum uint64
			for c := range st.ClassSubmitted {
				sum += st.ClassSubmitted[c]
				if st.ClassSubmitted[c] != st.ClassCompleted[c] {
					t.Errorf("class %d: submitted %d != completed %d", c, st.ClassSubmitted[c], st.ClassCompleted[c])
				}
			}
			if sum != st.Submitted {
				t.Errorf("classes sum to %d submitted, Submitted is %d", sum, st.Submitted)
			}
			if st.Submitted+st.Rejected != attempted {
				t.Errorf("Submitted %d + Rejected %d != %d attempted", st.Submitted, st.Rejected, attempted)
			}
		})
	}
}
