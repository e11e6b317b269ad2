// Execution layer: worker loops, the slice runner, the identity hand-off
// a preemption triggers, completion delivery, and the Ctx
// cooperative-preemption surface handlers program against. Nothing here
// knows about queue disciplines or shard counts — a worker's only
// scheduling relationship is with its owning shard's dispatcher (via
// locals[w] in, shard.submit out).
//
// A request's first slice runs inline: the goroutine that holds the
// executor identity (a worker loop, or a work-conserving dispatcher)
// calls the handler directly, and a request that finishes inside its
// first slice — nearly all of them — costs no goroutine, no channel
// rendezvous and no allocation. Only a request that actually yields
// needs a stack of its own, and it already has one: the goroutine it is
// running on. That goroutine keeps the request and parks; a successor
// goroutine adopts the identity (executor, local queue, occupancy,
// pinned thread, Stop accounting) and carries on serving. From then on
// the request is resumed and parked through the resume/parked channel
// rendezvous, and when its handler finally returns its goroutine hands
// over the response and exits.
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
// dispatcher in work-conserving mode. It is an identity, not a
// goroutine: whichever goroutine holds it runs its serve loop, and a
// preemption during an inline slice passes it to a successor (adopt).
type executor struct {
	id int // worker index, or -(shard+1) for a dispatcher
	// writer is the obs ring this executor records to: equal to id for
	// workers, obs.DispatcherWriter(shard) for dispatchers (distinct
	// from id so shard 1's dispatcher never collides with the client
	// ring).
	writer int
	// flag is the dedicated "cache line" the dispatcher writes to
	// request preemption and the task's Poll reads. It holds the epoch
	// being preempted (never 0): a request yields only when the flag
	// matches its own epoch, so a signal aimed at one request can never
	// hit its successor and no retraction handshake is needed.
	flag atomic.Uint64
	_    [cacheLinePad - 8]byte
	// running, runStart and runID are the worker's "currently running"
	// record, which the owning dispatcher compares against the quantum.
	// running packs epoch<<8 | class and is 0 between slices (and always,
	// on a dispatcher's own executor: nobody signals it); runStart is
	// the slice start in ns since Server.t0 and runID the request id,
	// kept on traced servers only. The worker stores running last and
	// the dispatcher reads it first and again last (see the signalling
	// pass), so publishing a slice is plain stores, not an allocation.
	running  atomic.Uint64
	runStart atomic.Int64
	runID    atomic.Uint64
	// epoch is the worker's current scheduling epoch. Written between
	// requests by the goroutine holding the identity, read by Poll —
	// on that same goroutine during an inline slice, otherwise on the
	// request's own goroutine, ordered by the resume/parked handshake.
	// A successor inherits it through the go statement that starts it.
	epoch uint64
	// sliceStart is when the current slice began (set by runSlice): the
	// slice's end charges runNS from it, and on a dispatcher it drives
	// time-based self-preemption, there being nobody to write its flag
	// (§3.3). sliceLen is how long a dispatcher slice lasts; fixed at
	// New.
	sliceStart time.Time
	sliceLen   time.Duration
	// lent is set while a Do caller runs a slice as this worker
	// (runLent); it is written under the occupancy place took, like the
	// rest of the identity.
	lent bool
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
// ex: what is specific to a worker is the trigger (publish the running
// record for the dispatcher to flag) and where a preempted request goes
// (requeue). It reports whether the calling goroutine detached from ex
// (see runSlice).
func (s *Server) workerRun(ex *executor, t *task) (detached bool) {
	now := time.Now()
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
	ex.epoch++ // epochs start at 1; flag value 0 means "no signal"
	ex.runStart.Store(int64(now.Sub(s.t0)))
	if s.tr != nil {
		ex.runID.Store(t.id)
	}
	ex.running.Store(ex.epoch<<8 | uint64(t.class))
	preempted, detached := s.runSlice(ex, t, now)
	if preempted {
		s.requeue(ex, t)
	}
	return detached
}

// runLent gives t its first slice as worker ex on the calling goroutine —
// a Do caller, to which place has lent the idle worker by taking every
// one of its JBSQ slots, so that the worker's own loop stays blocked on
// its empty local queue meanwhile and nobody else places on it. The
// slice is a worker slice in every respect (running record, quantum,
// trace, finish); if the request yields, adopt requeues it and gives the
// slots back, otherwise they are given back here.
func (s *Server) runLent(ex *executor, t *task) {
	ex.lent = true
	if !s.workerRun(ex, t) {
		ex.lent = false
		s.occ[ex.id].Store(0)
	}
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
	sh := s.shards[s.shardOf[ex.id]]
	sh.inbound.Add(1)
	sh.submit <- t
}

// runSlice is the one place a request runs: it gives t the CPU context
// ex for one slice starting at start and reports how the slice ended.
// What ends a slice early is the caller's business: it arms ex's trigger
// (a published running record, or the slice timer sliceStart feeds)
// before calling, and decides where a preempted request waits.
//
// The first slice calls the handler on the calling goroutine. If it
// returns without having yielded, the slice ends here: (false, false).
// If Poll yields during it, the calling goroutine stops being ex — Poll
// started a successor (adopt) that ended the slice on ex's behalf — and
// stays with the request as its private stack until the handler
// returns, possibly many slices and executors later; it then sends the
// response to whichever executor is running that last slice and reports
// detached, upon which every frame above returns without touching ex,
// the shard or the Start/Stop accounting. Later slices resume that
// goroutine and wait for it to park again (preempted) or finish.
func (s *Server) runSlice(ex *executor, t *task, start time.Time) (preempted, detached bool) {
	ex.sliceStart = start
	if t.started {
		if s.tr != nil {
			s.tr.Record(ex.writer, obs.EvResume, t.id, int64(ex.epoch))
		}
		t.resume <- ex
		return s.endSlice(ex, t, <-t.parked), false
	}
	t.started = true
	t.onDispatcher = ex.id < 0
	if s.tr != nil {
		t.firstRunTS = start
		s.tr.Record(ex.writer, obs.EvStart, t.id, int64(ex.epoch))
	}
	// The Ctx lives inside the task (no allocation per request); the
	// pool reset zeroes it with the rest of the task.
	ctx := &t.ctx
	*ctx = Ctx{srv: s, task: t, ex: ex, yieldEvery: s.coopTimeshare}
	resp := s.handle(ctx, t)
	// The executor that receives the final park event recycles the task,
	// and ctx with it, the moment the send completes: read the flag
	// first and touch neither t nor ctx afterwards.
	if ctx.detached {
		t.parked <- parkEvent{done: true, resp: resp}
		return false, true
	}
	return s.endSlice(ex, t, parkEvent{done: true, resp: resp}), false
}

// handle runs t's handler to completion on the calling goroutine and
// turns its return values — or its panic: a handler bug, or the
// taskAbort retire unwinds a parked request with — into the response.
func (s *Server) handle(ctx *Ctx, t *task) (resp Response) {
	resp.ID = t.id
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
	return resp
}

// endSlice closes the slice ex gave t: it clears the running record,
// charges the slice to runNS and, by what ended it, delivers the
// response or counts a preemption.
func (s *Server) endSlice(ex *executor, t *task, ev parkEvent) (preempted bool) {
	ex.running.Store(0)
	end := time.Now()
	t.runNS += int64(end.Sub(ex.sliceStart))
	if ev.done {
		s.finish(ex.writer, t, ev.resp, end)
		return false
	}
	t.preempts++
	s.stats.preemptions.Add(1)
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
	s.endSlice(ex, t, parkEvent{})
	if ex.id >= 0 {
		s.requeue(ex, t)
		if ex.lent { // the worker's own loop still holds the identity
			ex.lent = false
			s.occ[ex.id].Store(0)
			return
		}
		s.occ[ex.id].Add(-1)
		s.serveWorker(ex)
		return
	}
	sh := s.shards[-ex.id-1]
	sh.saved = t
	s.serveDispatcher(sh)
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
		s.stats.expired.Add(1)
	} else {
		s.stats.aborted.Add(1)
	}
	resp := Response{ID: t.id, Err: err}
	if t.started {
		t.abortErr = err
		t.resume <- ex
		resp = (<-t.parked).resp
	}
	s.finish(ex.writer, t, resp, time.Now())
}

// finish delivers a request's single response, finalized at end; writer
// identifies the executor completing it (a worker index or a dispatcher
// writer id) for event attribution. After delivery the task is recycled
// when nothing can still alias it (see task.release).
func (s *Server) finish(writer int, t *task, resp Response, end time.Time) {
	resp.Preemptions = t.preempts
	resp.OnDispatcher = t.onDispatcher
	resp.Req = t.payload
	resp.Done = end
	resp.Latency = end.Sub(t.arrival)
	if s.tr != nil {
		resp.Breakdown = t.breakdown(end, resp.Latency)
		kind, status := completionEvent(resp.Err)
		s.tr.Record(writer, kind, t.id, status)
	}
	if s.comp != nil {
		s.comp.observe(t, &resp)
	}
	s.stats.completed.Add(1)
	s.stats.classCompleted[t.class].Add(1)
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

// Ctx is the per-request context handlers receive. It is only valid on
// the goroutine running the handler.
type Ctx struct {
	srv  *Server
	task *task
	ex   *executor
	// detached is set by the request's first yield: from then on the
	// goroutine running the handler belongs to the request, not to an
	// executor, and parks and resumes through the task's channels.
	detached bool
	// watched is set by the first Poll of each worker slice, which wakes
	// the shard's dispatcher if it is parked (see park).
	watched    bool
	noPreempt  int
	yieldEvery int
	polls      int
	spinSink   uint64
}

// Worker returns the executor currently running the request: a worker
// index, or a negative value on a dispatcher (-1 for shard 0, -(s+1)
// for shard s).
func (c *Ctx) Worker() int { return c.ex.id }

// Poll is the cooperative preemption probe — the call Concord's compiler
// pass inserts at function entries and loop back-edges. If the
// dispatcher has signaled preemption of this request's epoch (or the
// dispatcher's self-check slice has expired) and no no-preempt section
// is open, the request yields and its executor picks up its next
// request. The first yield is the identity hand-off: until then the
// handler has been running on the executor's own goroutine, which now
// keeps the request — its stack is the request's continuation — drops
// its thread pin and starts the successor that carries the executor on
// (adopt). Later yields park on the task's channels. Either way the
// goroutine then waits to be resumed, and if the server aborted the
// request meanwhile (drain deadline or request deadline), Poll panics
// with an internal value that unwinds the handler — its defers run — and
// becomes the response error. The first Poll of each slice on a worker
// also wakes the shard's dispatcher if it has parked, so that someone
// watches the slice's quantum.
func (c *Ctx) Poll() {
	if c.yieldEvery > 0 {
		// On CPU-constrained machines, hand the OS thread over so the
		// dispatcher can observe quanta and write flags. This does not
		// yield the request in the scheduling sense.
		if c.polls++; c.polls >= c.yieldEvery {
			c.polls = 0
			runtime.Gosched()
		}
	}
	if c.noPreempt != 0 {
		return
	}
	if c.ex.id >= 0 {
		if !c.watched {
			// A parked dispatcher cannot see this slice's quantum run out;
			// a slice that never polls could not be preempted anyway.
			c.watched = true
			wake(c.srv.shards[c.srv.shardOf[c.ex.id]])
		}
		f := c.ex.flag.Load()
		if f == 0 || f != c.ex.epoch {
			return // no signal, or a stale signal for a predecessor
		}
	} else {
		// Dispatcher slice: self-preempt on elapsed time (§3.3).
		if time.Since(c.ex.sliceStart) < c.ex.sliceLen {
			return
		}
	}
	if c.detached {
		c.task.parked <- parkEvent{done: false}
	} else {
		c.detached = true
		if c.srv.opts.PinThreads {
			runtime.UnlockOSThread()
		}
		go c.srv.adopt(c.ex, c.task)
	}
	c.ex, c.watched = <-c.task.resume, false
	if err := c.task.abortErr; err != nil {
		panic(taskAbort{err})
	}
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
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		for i := 0; i < 64; i++ {
			c.spinSink++
		}
		c.Poll()
	}
}
