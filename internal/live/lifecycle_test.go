package live

import (
	"errors"
	"fmt"
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
	for iter := 0; iter < 10; iter++ {
		opts := testOptions(1, 100*time.Microsecond)
		opts.SubmitBuffer = 2
		s := New(&spinHandler{}, opts)
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
	for iter := 0; iter < 30; iter++ {
		opts := testOptions(1, 50*time.Microsecond)
		opts.SubmitBuffer = 1
		s := New(&spinHandler{}, opts)
		s.Start()

		var chans []<-chan Response
		for i := 0; i < 6; i++ {
			chans = append(chans, s.Submit(300*time.Microsecond))
		}
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
// drain-window regression: the requeue gate holds the worker between
// its preemption park and the re-submit while Stop runs. Pre-fix the
// worker had already released its occupancy, so the dispatcher declared
// the server drained, exited, and the task was lost — this test then
// fails its 10s receive. Post-fix the occupancy is held across the
// hand-off, so the dispatcher waits and the request completes.
func TestDrainWindowNoTaskLossGated(t *testing.T) {
	entered := make(chan struct{}, 64)
	release := make(chan struct{})
	testRequeueGate = func() {
		entered <- struct{}{}
		<-release
	}
	defer func() { testRequeueGate = nil }()

	opts := testOptions(1, 50*time.Microsecond)
	opts.SubmitBuffer = 1
	s := New(&spinHandler{}, opts)
	s.Start()

	ch := s.Submit(500 * time.Microsecond)
	select {
	case <-entered: // the task parked and is mid-hand-off
	case <-time.After(10 * time.Second):
		t.Skip("no preemption observed; host too slow for wall-clock quanta")
	}
	stopDone := make(chan struct{})
	go func() { s.Stop(); close(stopDone) }()
	time.Sleep(2 * time.Millisecond) // give a buggy dispatcher time to "drain"
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
	time.Sleep(2 * time.Millisecond) // buggy Stop completes here; fixed Stop blocks
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

// TestStaleEpochFlagIgnored: a preemption signal aimed at epoch N must
// be inert for the request running at epoch N+1. Pre-fix the flag was a
// bare 0/1 bit retracted with a check-then-act sequence, so a new
// request could consume its predecessor's signal; epoch-valued flags
// make that structurally impossible.
func TestStaleEpochFlagIgnored(t *testing.T) {
	ex := &executor{id: 0}
	ex.epoch = 2
	ex.flag.Store(1) // stale signal for the previous request
	c := &Ctx{
		task: &task{resume: make(chan *executor), parked: make(chan parkEvent)},
		ex:   ex, yieldEvery: -1,
	}
	returned := make(chan struct{})
	go func() {
		c.Poll()
		close(returned)
	}()
	select {
	case <-returned:
	case <-c.task.parked:
		t.Fatal("stale preemption flag preempted the successor request")
	case <-time.After(5 * time.Second):
		t.Fatal("Poll blocked")
	}
}

// TestCurrentEpochFlagYields: the matching epoch still preempts.
func TestCurrentEpochFlagYields(t *testing.T) {
	ex := &executor{id: 0}
	ex.epoch = 2
	ex.flag.Store(2)
	c := &Ctx{
		task: &task{resume: make(chan *executor), parked: make(chan parkEvent)},
		ex:   ex, yieldEvery: -1,
	}
	returned := make(chan struct{})
	go func() {
		c.Poll()
		close(returned)
	}()
	select {
	case ev := <-c.task.parked:
		if ev.done {
			t.Fatal("park event marked done")
		}
		c.task.resume <- ex // resume so the goroutine exits
		<-returned
	case <-returned:
		t.Fatal("current-epoch flag did not preempt")
	case <-time.After(5 * time.Second):
		t.Fatal("Poll neither parked nor returned")
	}
}

// TestQueueFullRejected: a full submit buffer rejects immediately with
// ErrQueueFull instead of blocking the caller — explicit backpressure.
func TestQueueFullRejected(t *testing.T) {
	opts := testOptions(1, 0)
	opts.SubmitBuffer = 1
	s := New(&spinHandler{}, opts)
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
	opts := testOptions(1, 0)
	opts.QueueBound = 1
	opts.RequestTimeout = 5 * time.Millisecond
	s := New(&spinHandler{}, opts)
	s.Start()
	defer s.Stop()

	hog := s.Submit(80 * time.Millisecond)
	time.Sleep(time.Millisecond) // let the hog reach the worker
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
	time.Sleep(2 * time.Millisecond)
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

// savedReq spins for d and reports the executor it started and ended
// on. It carries a hint and a class so the srpt and cascade rows order
// it by something.
type savedReq struct {
	d     time.Duration
	class SLOClass
}

func (r savedReq) ServiceHint() time.Duration { return r.d }
func (r savedReq) SLOClass() SLOClass         { return r.class }

// savedHandler blocks on "block" payloads (holding a worker without
// polling) and spins savedReq payloads behind a deferred call, so a test
// can tell that an aborted handler unwound.
type savedHandler struct {
	release chan struct{}
	unwound atomic.Int32
}

func (h *savedHandler) Setup()          {}
func (h *savedHandler) SetupWorker(int) {}
func (h *savedHandler) Handle(ctx *Ctx, payload any) (any, error) {
	req, ok := payload.(savedReq)
	if !ok {
		<-h.release
		return payload, nil
	}
	defer h.unwound.Add(1)
	first := ctx.Worker()
	ctx.Spin(req.d)
	return [2]int{first, ctx.Worker()}, nil
}

// TestDispatcherRunLifecycle drives the slice runner and the retire path
// through the work-conserving dispatcher: with every worker held by a
// blocker at QueueBound 1, a request can only run on its shard's
// dispatcher, outlives the dispatcher slice, and is preempted into the
// saved slot — from where it completes, expires, or is aborted by the
// drain deadline. Every row checks the same invariants: exactly one
// response per submission, Submitted == Completed, Expired and Aborted
// equal to the number of responses carrying the matching error, handler
// defers run, and the request never leaves the dispatcher that started
// it.
func TestDispatcherRunLifecycle(t *testing.T) {
	outcomes := []struct {
		name    string
		spin    time.Duration
		tune    func(*Options)
		wantErr error
	}{
		{"completes", 2 * time.Millisecond, func(*Options) {}, nil},
		{"expires", 10 * time.Second, func(o *Options) { o.RequestTimeout = 50 * time.Millisecond }, ErrDeadlineExceeded},
		{"aborted", 10 * time.Second, func(o *Options) { o.DrainTimeout = 20 * time.Millisecond }, ErrServerStopped},
	}
	for _, pol := range []string{PolicyFCFS, PolicySRPT, PolicyCascade, PolicyCascadeSRPT} {
		for _, shards := range []int{1, 2} {
			for _, oc := range outcomes {
				t.Run(fmt.Sprintf("%s/shards%d/%s", pol, shards, oc.name), func(t *testing.T) {
					h := &savedHandler{release: make(chan struct{})}
					opts := Options{Workers: shards, Shards: shards, Policy: pol,
						Quantum: 100 * time.Microsecond, QueueBound: 1, WorkConserving: true}
					oc.tune(&opts)
					s := New(h, opts)
					s.Start()

					var chans []<-chan Response
					for i := 0; i < shards; i++ {
						chans = append(chans, s.Submit("block"))
					}
					waitUntil(t, "a blocker on every worker", func() bool {
						d := s.Depths()
						for _, occ := range d.Workers {
							if occ != 1 {
								return false
							}
						}
						return d.Central == 0 && d.Submit == 0
					})
					for i := 0; i < shards; i++ {
						chans = append(chans, s.Submit(savedReq{d: oc.spin, class: ClassCritical}))
					}

					stopDone := make(chan struct{})
					if oc.wantErr == ErrServerStopped {
						go func() { s.Stop(); close(stopDone) }()
					}
					byErr := map[error]uint64{}
					var dispatcherOK uint64
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
					for i := shards; i < len(chans); i++ {
						resp := receive(i)
						if resp.Err != oc.wantErr {
							t.Fatalf("target %d: err = %v, want %v", i, resp.Err, oc.wantErr)
						}
						if !resp.OnDispatcher || resp.Preemptions == 0 {
							t.Fatalf("target %d: OnDispatcher=%v Preemptions=%d, want a dispatcher-run request preempted into the saved slot",
								i, resp.OnDispatcher, resp.Preemptions)
						}
						if resp.Err == nil {
							dispatcherOK++
							if on := resp.Payload.([2]int); on[0] >= 0 || on[1] != on[0] {
								t.Fatalf("target %d started on executor %d and ended on %d: dispatcher-run requests must not migrate", i, on[0], on[1])
							}
						}
					}
					close(h.release)
					for i := 0; i < shards; i++ {
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
					if got := h.unwound.Load(); got != int32(shards) {
						t.Fatalf("%d handler defers ran, want %d", got, shards)
					}
				})
			}
		}
	}
}
