// Execution layer: worker loops, the per-request goroutine, completion
// delivery, and the Ctx cooperative-preemption surface handlers program
// against. Nothing here knows about queue disciplines or shard counts —
// a worker's only scheduling relationship is with its owning shard's
// dispatcher (via locals[w] in, shard.submit out).
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
// dispatcher in work-conserving mode.
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
	// running is the worker's "currently running" record the owning
	// dispatcher compares against the quantum; nil between slices (and
	// always, on a dispatcher's own executor: nobody signals it).
	running atomic.Pointer[runInfo]
	// epoch is the worker's current scheduling epoch. Written by the
	// worker loop between requests, read by the request goroutine; the
	// resume/parked channel handshake orders the accesses.
	epoch uint64
	// sliceStart/sliceLen drive time-based self-preemption when a
	// dispatcher runs tasks (there is nobody to write its flag, §3.3);
	// sliceLen is fixed at New.
	sliceStart time.Time
	sliceLen   time.Duration
}

func (s *Server) workerLoop(w int) {
	defer s.wg.Done()
	if s.opts.PinThreads {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
	}
	s.handler.SetupWorker(w)
	ex := s.workers[w]
	for t := range s.locals[w] {
		s.workerRun(ex, t)
		// occ is held until the request is answered or back on the
		// shard's ingress, so drained() can never observe an idle shard
		// while a task is between queues: released before the requeue
		// hand-off, the dispatcher could shut down with the task in
		// flight (lost, and this worker blocked on the send forever).
		s.occ[w].Add(-1)
	}
}

// workerRun gives one locally dequeued request its next slice on worker
// ex: what is specific to a worker is the trigger (publish a runInfo
// for the dispatcher to flag) and where a preempted request goes (back
// to the owning shard's ingress).
func (s *Server) workerRun(ex *executor, t *task) {
	now := time.Now()
	// Abort and deadline checks at local dequeue: a request whose
	// deadline passed while it sat in this worker's JBSQ queue (behind a
	// slow request) must answer ErrDeadlineExceeded, not run to a
	// too-late success. The central-queue sweep cannot see it here —
	// this is the only enforcement point once a task is dispatched.
	if s.abort.Load() {
		s.retire(ex, t, ErrServerStopped)
		return
	}
	if t.expired(now) {
		s.retire(ex, t, ErrDeadlineExceeded)
		return
	}
	ex.epoch++ // epochs start at 1; flag value 0 means "no signal"
	ex.running.Store(&runInfo{epoch: ex.epoch, id: t.id, start: now, class: t.class})
	if !s.runSlice(ex, t, now) {
		return
	}
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
	s.shards[s.shardOf[ex.id]].submit <- t
}

// runSlice is the one place a request runs: it hands t the CPU context
// ex for one slice starting at start (launching the request's goroutine
// on its first slice), waits for it to finish or yield, charges the
// slice to runNS and either delivers the response or counts a
// preemption. It reports whether t was preempted; the caller decides
// where a preempted request waits for its next slice. What ends the
// slice early is the caller's business too: it arms ex's trigger (a
// published runInfo or a slice timer) before calling.
func (s *Server) runSlice(ex *executor, t *task, start time.Time) (preempted bool) {
	first := !t.started
	if first {
		t.started = true
		t.onDispatcher = ex.id < 0
		s.startTask(t)
	}
	if s.tr != nil {
		kind := obs.EvResume
		if first {
			t.firstRunTS = start
			kind = obs.EvStart
		}
		s.tr.Record(ex.writer, kind, t.id, int64(ex.epoch))
	}
	t.resume <- ex
	ev := <-t.parked
	ex.running.Store(nil)
	end := time.Now()
	t.runNS += int64(end.Sub(start))
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

// startTask launches the request's goroutine (its user-level context).
func (s *Server) startTask(t *task) {
	go func() {
		ex := <-t.resume
		// The Ctx lives inside the task (one fewer allocation per
		// request); the pool reset zeroes it with the rest of the task.
		ctx := &t.ctx
		*ctx = Ctx{task: t, ex: ex, yieldEvery: s.opts.CoopTimeshare}
		out, err := func() (out any, err error) {
			defer func() {
				if r := recover(); r != nil {
					if ab, ok := r.(taskAbort); ok {
						err = ab.err
					} else {
						err = fmt.Errorf("live: handler panicked: %v", r)
					}
				}
			}()
			return s.handler.Handle(ctx, t.payload)
		}()
		t.parked <- parkEvent{done: true, resp: Response{
			ID:      t.id,
			Payload: out,
			Err:     err,
		}}
	}()
}

// retire is the one place a request that will not run again is
// answered: err is ErrDeadlineExceeded (it expired while queued or
// parked) or ErrServerStopped (the drain deadline passed), and picks
// the Expired or Aborted counter. A request that never started is
// answered directly; one that did is resumed with abortErr set, so its
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
	task       *task
	ex         *executor
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
// is open, the request yields: its goroutine parks and the worker picks
// up its next request. If the server aborted the request while it was
// parked (drain deadline or request deadline), Poll panics with an
// internal value that unwinds the handler — its defers run — and
// becomes the response error.
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
	c.task.parked <- parkEvent{done: false}
	c.ex = <-c.task.resume
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
