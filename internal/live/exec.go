// Execution layer: worker loops, the slice runner, the identity hand-off
// a preemption triggers, completion delivery, and the Ctx
// cooperative-preemption surface handlers program against. Nothing here
// knows about queue disciplines or shard counts — a worker's only
// scheduling relationship is with its owning shard's dispatcher (via
// locals[w] in, shard.submit out). Nobody signals a slice: every slice,
// a worker's or a dispatcher's, times itself in Poll (sliceOver).
//
// A request's first slice runs inline: the goroutine that holds the
// executor identity (a worker loop, a work-conserving dispatcher, or a
// Do or TryDo caller lent an idle worker) calls the handler directly,
// and a request that finishes inside its first slice — nearly all of
// them — costs no goroutine, no channel rendezvous and no allocation; a
// lent one's response is built in its caller's frame and returned up its
// stack, through no channel at all. Only a request that actually yields
// needs a stack of its own, and it already has one: the goroutine it is
// running on. That goroutine keeps the request and parks; a successor
// goroutine adopts the identity (executor, local queue, occupancy,
// pinned thread, Stop accounting) and carries on serving. From then on
// the request is resumed and parked through the resume/parked channel
// rendezvous, and when its handler finally returns its goroutine hands
// over the response and exits — or, if it is a lent request's caller,
// waits for the finished response on the channel its first yield took.
package live

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"concord/internal/obs"
)

// executor is a CPU context a task can run on: a worker or a shard's
// dispatcher. It is an identity, not a goroutine: whichever goroutine
// holds it runs its serve loop, and a preemption during an inline slice
// passes it to a successor (adopt).
// Its state is plain fields: the goroutine holding the identity writes
// them, and the request it runs reads them in Poll — on that same
// goroutine during an inline slice, otherwise on the request's own,
// ordered by the resume/parked handshake. A successor inherits them
// through the go statement that starts it. The padding on both sides
// gives each executor's state lines of its own, whatever the allocator
// puts beside it: only the identity's holder writes them.
type executor struct {
	_  [cacheLinePad]byte
	id int // worker index, or -(shard+1) for a dispatcher
	// writer is the obs ring this executor records to: equal to id for
	// workers, obs.DispatcherWriter(shard) for dispatchers (distinct
	// from id so shard 1's dispatcher never collides with the client
	// ring).
	writer int
	sh     *shard // the shard this worker belongs to, or this dispatcher's
	// sliceStart is when the current slice began (set by runSlice): the
	// slice's end charges runNS from it, and Poll measures the slice
	// against the quantum from it (sliceOver). defaultSlice is how long
	// a slice lasts when no quantum is in force: 0 — until the request
	// returns — on a worker, dispatcherSlice on a dispatcher, which has
	// its own duties to get back to (§3.3).
	sliceStart   int64 // nanotime
	defaultSlice time.Duration
	// lent is set while a Do or TryDo caller runs a slice as this worker
	// (runPlaced), until the slice ends or the request yields (adopt); it
	// is written under the occupancy place took, like the rest of the
	// identity. A request that finishes a lent slice is counted once
	// (finish).
	lent bool
	// n is this executor's share of Stats.
	n counters
	_ [cacheLinePad]byte
}

// counters are the Stats counters an executor's holder writes: every
// completion, expiry, abort, preemption, dispatcher run and steal, and a
// request a Do or TryDo caller placed on the worker. Each is written
// only by whoever holds the identity at the time, so no other core
// writes the line; Stats sums them over the executors. (Submissions
// that take the ingress, and rejections, are counted on Server.stats.)
// A placed request that finishes in its first slice is one event, and
// one count: classPlaced, which Stats adds to both sides. One that
// yields is counted in classSubmitted by adopt and completed as any
// other.
type counters struct {
	classSubmitted [NumClasses]atomic.Uint64
	classCompleted [NumClasses]atomic.Uint64
	classPlaced    [NumClasses]atomic.Uint64
	expired        atomic.Uint64
	aborted        atomic.Uint64
	preemptions    atomic.Uint64
	dispatcherRun  atomic.Uint64
	steals         atomic.Uint64
}

// occWord is one worker's JBSQ occupancy, on a line of its own: the
// worker, its dispatcher and placing callers all write it, and the
// padding keeps every other word — a sibling worker's, or whatever the
// allocator puts next to the slice — off that line.
type occWord struct {
	_ [cacheLinePad]byte
	atomic.Int32
	_ [cacheLinePad]byte
}

// workerLoop is the first goroutine to hold worker w's identity: under
// PinThreads it pins itself and does the once-per-identity setup (Start
// did it otherwise), and then it serves. SetupWorker is not called again
// however many goroutines the identity passes through.
func (s *Server) workerLoop(w int) {
	if s.opts.PinThreads {
		runtime.LockOSThread()
		s.handler.SetupWorker(w)
	}
	s.serveWorker(s.workers[w])
}

// serveWorker is worker ex's serve loop, run by whichever goroutine
// holds the identity. It ends in one of two ways: the local queue was
// closed (Stop), and the holder releases the identity — Start's
// WaitGroup count belongs to the identity, not to a goroutine, so there
// is no deferred Done in a frame a detached goroutine unwinds through —
// or a request this goroutine was running inline yielded, a successor
// has the identity, and this goroutine, having just delivered that
// request's response, leaves without touching anything the identity
// owns.
func (s *Server) serveWorker(ex *executor) {
	for t := range s.locals[ex.id] {
		if s.workerRun(ex, t) {
			return
		}
		// occ is held until the request is answered or back on the
		// shard's ingress, so drained() can never observe an idle shard
		// while a task is between queues: released before the requeue
		// hand-off, the dispatcher could shut down with the task in
		// flight (lost, and this worker blocked on the send forever).
		s.occ[ex.id].Add(-1)
	}
	if s.opts.PinThreads {
		runtime.UnlockOSThread()
	}
	s.wg.Done()
}

// workerRun gives one locally dequeued request its next slice on worker
// ex: what is specific to a worker is where a preempted request goes
// (requeue). It reports whether the calling goroutine detached from ex
// (see runSlice).
func (s *Server) workerRun(ex *executor, t *task) (detached bool) {
	var resp Response
	now := nanotime()
	// Abort and deadline checks at local dequeue: a request whose
	// deadline passed while it sat in this worker's JBSQ queue (behind a
	// slow request) must answer ErrDeadlineExceeded, not run to a
	// too-late success. The central-queue sweep cannot see it here —
	// this is the only enforcement point once a task is dispatched.
	if s.abort.Load() {
		s.retire(ex, t, ErrServerStopped)
		return false
	}
	if t.expired(now) {
		s.retire(ex, t, ErrDeadlineExceeded)
		return false
	}
	preempted, detached := s.runSlice(ex, t, now, &resp)
	if preempted {
		s.requeue(ex, t)
	}
	return detached
}

// requeue is a worker's post-yield step: the preempted request goes back
// to the owning shard's ingress — or, once the drain deadline has
// passed, is retired. The caller releases the worker's occupancy after
// it, never before (see serveWorker).
func (s *Server) requeue(ex *executor, t *task) {
	if s.abort.Load() {
		s.retire(ex, t, ErrServerStopped)
		return
	}
	// Started tasks keep the affinity of the shard that ran them: they
	// re-enter through its submit buffer, never through ingest
	// round-robin.
	if testRequeueGate != nil {
		testRequeueGate()
	}
	if s.tr != nil {
		s.tr.Record(ex.writer, obs.EvRequeue, t.id, 0)
	}
	ex.sh.inbound.Add(1)
	ex.sh.submit <- t
}

// runSlice is the one place a request runs: it gives t the CPU context
// ex for one slice starting at start and reports how the slice ended.
// What ends a slice early is Poll's one rule (sliceOver), timed from the
// start stamped here; the caller decides where a preempted request waits.
// A slice that finishes the request builds its response in *resp, the
// caller's space for it.
//
// The first slice calls the handler on the calling goroutine. If it
// returns without having yielded, the slice ends here: (false, false).
// If Poll yields during it, the calling goroutine stops being ex — Poll
// started a successor (adopt) that ended the slice on ex's behalf — and
// stays with the request as its private stack until the handler
// returns, possibly many slices and executors later; it then sends the
// response to whichever executor is running that last slice and reports
// detached, upon which every frame above returns without touching ex,
// the shard or the Start/Stop accounting. A placed request's caller
// first waits for the finished response, on the channel its first yield
// took (Ctx.check), and returns it in *resp. Later slices resume that
// goroutine and wait for it to park again (preempted) or finish.
func (s *Server) runSlice(ex *executor, t *task, start int64, resp *Response) (preempted, detached bool) {
	ex.sliceStart = start
	if t.started {
		if s.tr != nil {
			s.tr.Record(ex.writer, obs.EvResume, t.id, int64(t.preempts))
		}
		t.resume <- ex
		ev := <-t.parked
		*resp = ev.resp
		return s.endSlice(ex, t, ev.done, resp), false
	}
	t.started = true
	t.onDispatcher = ex.id < 0
	if s.tr != nil {
		t.firstRunTS = start
		s.tr.Record(ex.writer, obs.EvStart, t.id, 0)
	}
	// The Ctx lives inside the task (no allocation per request); the
	// pool reset zeroes it with the rest of the task.
	ctx := &t.ctx
	*ctx = Ctx{srv: s, task: t, ex: ex, yieldEvery: s.coopTimeshare}
	s.handle(ctx, t, resp)
	// The executor that receives the final park event recycles the task,
	// and ctx with it, the moment the send completes: read ctx first and
	// touch neither t nor ctx afterwards.
	if ctx.detached {
		wait := ctx.wait
		t.parked <- parkEvent{done: true, resp: *resp}
		if wait != nil {
			*resp = <-wait
			respChans.Put(wait)
		}
		return false, true
	}
	return s.endSlice(ex, t, true, resp), false
}

// handle runs t's handler to completion on the calling goroutine and
// turns its return values — or its panic: a handler bug, or the
// taskAbort retire unwinds a parked request with — into resp's payload
// and error.
func (s *Server) handle(ctx *Ctx, t *task, resp *Response) {
	defer func() {
		if r := recover(); r != nil {
			if ab, ok := r.(taskAbort); ok {
				resp.Err = ab.err
			} else {
				resp.Err = fmt.Errorf("live: handler panicked: %v", r)
			}
		}
	}()
	resp.Payload, resp.Err = s.handler.Handle(ctx, t.payload)
}

// endSlice closes the slice ex gave t: it charges the slice to runNS
// and, by whether the request is done, finishes its response or counts a
// preemption.
func (s *Server) endSlice(ex *executor, t *task, done bool, resp *Response) (preempted bool) {
	end := nanotime()
	t.runNS += end - ex.sliceStart
	if done {
		s.finish(ex, t, resp, end)
		return false
	}
	t.preempts++
	ex.n.preemptions.Add(1)
	if s.tr != nil {
		s.tr.Record(ex.writer, obs.EvYield, t.id, 0)
	}
	return true
}

// adopt is the successor goroutine Poll starts when request t yields
// during its inline slice: the goroutine that was ex keeps t, and this
// one takes over the identity where that one left off — it ends the
// slice as preempted, does the caller's post-yield step (a worker
// requeues t and only then releases its occupancy, so drained() still
// cannot see the shard idle with t in flight; a dispatcher parks t in
// its saved slot) and carries on serving. The identity's one-time setup
// is not repeated; only the thread pin is taken again, the yielding
// goroutine having dropped its own.
func (s *Server) adopt(ex *executor, t *task) {
	if s.opts.PinThreads {
		runtime.LockOSThread()
	}
	s.endSlice(ex, t, false, nil)
	if ex.id >= 0 {
		// A placed request is counted submitted here, before anyone else
		// can finish it; its caller no longer runs as ex.
		lent := ex.lent
		if lent {
			ex.lent = false
			ex.n.classSubmitted[t.class].Add(1)
		}
		s.requeue(ex, t)
		if lent { // the worker's own loop still holds the identity
			s.occ[ex.id].Store(0)
			return
		}
		s.occ[ex.id].Add(-1)
		s.serveWorker(ex)
		return
	}
	ex.sh.saved = t
	s.serveDispatcher(ex.sh)
}

// retire is the one place a request that will not run again is
// answered: err is ErrDeadlineExceeded (it expired while queued or
// parked) or ErrServerStopped (the drain deadline passed), and picks
// the Expired or Aborted counter. A request that never started is
// answered directly; one that did is parked on its own goroutine (its
// first yield gave it one) and is resumed with abortErr set, so its
// handler unwinds from Poll and its defers run before the response goes
// out.
func (s *Server) retire(ex *executor, t *task, err error) {
	if err == ErrDeadlineExceeded {
		ex.n.expired.Add(1)
	} else {
		ex.n.aborted.Add(1)
	}
	resp := Response{Err: err}
	if t.started {
		t.abortErr = err
		t.resume <- ex
		resp = (<-t.parked).resp
	}
	s.finish(ex, t, &resp, nanotime())
}

// finish completes a request's single response in resp, finalized at end
// (a nanotime), delivers it, and counts it on ex, the executor completing
// it. After delivery the task is recycled unless a policy queue still
// holds it (see task.release).
func (s *Server) finish(ex *executor, t *task, resp *Response, end int64) {
	resp.ID = t.id
	resp.Preemptions = t.preempts
	resp.OnDispatcher = t.onDispatcher
	resp.Req = t.payload
	resp.Done = at(end)
	resp.Latency = time.Duration(end - t.arrival)
	resp.Service = time.Duration(t.runNS)
	if s.tr != nil {
		resp.Breakdown = t.breakdown(end, resp.Latency)
		// Stamped at end, like the submit event at arrival, so the
		// event total equals Latency.
		kind, status := completionEvent(resp.Err)
		s.tr.RecordAt(ex.writer, kind, t.id, status, at(end))
	}
	if ex.lent { // a placed request's first slice: submitted and completed at once
		ex.n.classPlaced[t.class].Add(1)
	} else {
		ex.n.classCompleted[t.class].Add(1)
	}
	t.deliver(resp)
	t.release()
}

// completionEvent maps a response error onto the terminal event kind
// and status code.
func completionEvent(err error) (obs.Kind, int64) {
	switch {
	case err == nil:
		return obs.EvComplete, obs.StatusOK
	case errors.Is(err, ErrDeadlineExceeded):
		return obs.EvExpire, obs.StatusDeadline
	case errors.Is(err, ErrServerStopped):
		return obs.EvAbort, obs.StatusStopped
	default:
		return obs.EvComplete, obs.StatusError
	}
}

// ---------- request context ----------

// pollCheckEvery is how many polls share one clock read: Poll checks its
// slice on every pollCheckEvery-th call (a power of two). A clock read is
// an rdtsc and a multiply, still tens of nanoseconds where a poll should
// cost a few (BenchmarkPoll, BenchmarkNanotime); one read in sixteen
// keeps it there, at the price of a slice ending up to fifteen poll gaps
// late.
const pollCheckEvery = 16

// Ctx is the per-request context handlers receive. It is only valid on
// the goroutine running the handler.
type Ctx struct {
	srv  *Server
	task *task
	ex   *executor
	// detached is set by the request's first yield: from then on the
	// goroutine running the handler belongs to the request, not to an
	// executor, and parks and resumes through the task's channels. wait is
	// the channel a placed request's caller takes at that yield to wait
	// for the response on (runSlice).
	detached  bool
	wait      chan Response
	noPreempt int
	// polls counts the request's polls; yieldEvery is coopTimeshare.
	polls      int
	yieldEvery int
	spinSink   uint64
}

// Worker returns the executor currently running the request: a worker
// index, or a negative value on a dispatcher (-1 for shard 0, -(s+1)
// for shard s).
func (c *Ctx) Worker() int { return c.ex.id }

// Poll is the cooperative preemption probe — the call Concord's compiler
// pass inserts at function entries and loop back-edges. It is a counter;
// every pollCheckEvery-th call outside a no-preempt section also checks
// the slice (sliceOver), and once the slice is over the request yields
// and its executor picks up its next request. The first yield is the
// identity hand-off: until then the handler has been running on the
// executor's own goroutine, which now keeps the request — its stack is
// the request's continuation — drops its thread pin and starts the
// successor that carries the executor on (adopt). Later yields park on
// the task's channels. Either way the goroutine then waits to be
// resumed, and if the server aborted the request meanwhile (drain
// deadline or request deadline), Poll panics with an internal value that
// unwinds the handler — its defers run — and becomes the response error.
func (c *Ctx) Poll() {
	if c.polls++; c.polls&(pollCheckEvery-1) == 0 {
		c.check()
	}
}

// check is Poll's slow path, kept out of line so that Poll inlines.
func (c *Ctx) check() {
	if c.yieldEvery > 0 && c.polls%c.yieldEvery == 0 {
		// Time-sharing, and nothing else: with fewer CPUs than the runtime
		// has loops, request code hands its thread over now and then so
		// that other runnable goroutines — a load generator busy-waiting
		// on the other P, a dispatcher with work to place — are not held
		// off for a whole quantum. This does not yield the request in the
		// scheduling sense, and preemption does not need it.
		runtime.Gosched()
	}
	if c.noPreempt != 0 || !c.srv.sliceOver(c.ex, c.task) {
		return
	}
	if c.detached {
		c.task.parked <- parkEvent{}
	} else {
		c.detached = true
		if c.ex.lent {
			// The caller will not run the last slice: the response comes
			// back to it through a channel, which the task now delivers to.
			c.wait = respChans.Get().(chan Response)
			c.task.result = c.wait
		}
		if c.srv.opts.PinThreads {
			runtime.UnlockOSThread()
		}
		go c.srv.adopt(c.ex, c.task)
	}
	c.ex = <-c.task.resume
	if err := c.task.abortErr; err != nil {
		panic(taskAbort{err})
	}
}

// sliceOver is the one preemption rule, for worker and dispatcher slices
// alike: ex's slice of t is over once the drain deadline has passed, or
// once it has run for t's quantum — shrunk while critical work waits on
// ex's shard, and ex.defaultSlice when no quantum is in force. What the
// paper's dispatcher does for its workers by writing a flag, each slice
// does here for itself: the clock read every pollCheckEvery polls is
// cheaper than a dispatcher that needs a CPU to watch the clock for it.
func (s *Server) sliceOver(ex *executor, t *task) bool {
	if s.abort.Load() {
		return true
	}
	q := s.quantumFor(t.class, s.critShrink(ex.sh))
	if q <= 0 {
		q = ex.defaultSlice
	}
	return q > 0 && nanotime()-ex.sliceStart >= int64(q)
}

// BeginNoPreempt opens a critical section during which Poll will not
// yield — the paper's lock counter (§3.1). Sections nest.
func (c *Ctx) BeginNoPreempt() { c.noPreempt++ }

// EndNoPreempt closes a critical section. It panics on underflow.
func (c *Ctx) EndNoPreempt() {
	if c.noPreempt == 0 {
		panic("live: EndNoPreempt without BeginNoPreempt")
	}
	c.noPreempt--
}

// Spin busily consumes CPU for roughly d, polling for preemption at a
// fine grain. It is the synthetic "spin for the requested service time"
// workload of §5.1.
func (c *Ctx) Spin(d time.Duration) {
	deadline := nanotime() + int64(d)
	for nanotime() < deadline {
		for i := 0; i < 64; i++ {
			c.spinSink++
		}
		c.Poll()
	}
}
