// Dispatch layer: per-shard dispatcher loops. Each shard owns a
// disjoint worker subset and its own central queue; its loop ingests
// submissions, signals preemption for its workers, expires deadlines,
// JBSQ-pushes to the shortest local queue (§3.2), steals never-started
// requests from the longest sibling queue when it would otherwise idle,
// and runs requests itself under time-based self-preemption when every
// local queue is full (§3.3). One shard is exactly the paper's single
// dispatcher. A loop that has had nothing to do for parkAfter blocks
// until something needs it (park) instead of spinning on a core the host
// may not have to spare.
package live

import (
	"runtime"
	"sync/atomic"
	"time"

	"concord/internal/obs"
)

// parkAfter is how long a dispatcher loop spins idle before it tries to
// park: long enough that a loop under load never pays for blocking,
// short enough that an idle one gives its core back at once.
const parkAfter = time.Millisecond

// critQuantumShrink divides a running lower-tier request's effective
// quantum while ClassCritical work is queued on its shard, so critical
// requests reach a CPU within a fraction of the normal quantum instead
// of a full one — the dispatch-layer half of the priority cascade (the
// queue half is the cascade discipline's tier order). It is armed only
// by configuration that is itself about scheduling classes — see
// Server.critShrink — never by an observer: a server that merely
// measures per class schedules exactly like one that does not.
const critQuantumShrink = 4

// shard is one dispatcher: policy queue, ingress buffer, worker subset,
// and the work-conserving executor state.
type shard struct {
	id     int
	writer int // obs writer id for this shard's dispatcher ring
	q      *centralQueue
	submit chan *task
	// inbound counts the tasks accepted for this shard and not yet in q:
	// in submit, or received from it and not yet pushed, which len(submit)
	// and q.Len() both miss. A sender counts a task before its send and
	// ingest uncounts it after the push, so place, which reads inbound
	// before q, sees every accepted task in one or the other.
	inbound atomic.Int32
	// workers holds the global indices of the workers this shard owns.
	workers []int
	// ex is the dispatcher-as-executor identity for work conservation.
	ex *executor
	// saved parks a preempted dispatcher-run request between slices;
	// such requests never migrate (§3.3).
	saved *task
	// lastFlagged dedups preemption signals per local worker (parallel
	// to workers).
	lastFlagged []uint64
	// cascade reports that q currently orders by SLOClass tier; set with
	// q, at New and at each policy swap.
	cascade bool
	// polEpoch is the policy-change epoch this shard last applied; when
	// Server.polState moves past it the loop drain-and-swaps its queue
	// at the top of the iteration (a quiesce point: no dispatch
	// decision is in flight).
	polEpoch uint64
	done     chan struct{} // this shard's dispatcher exited
	// parked is set while the loop is blocked, or about to block, in
	// park; bell is the one-slot doorbell wake rings.
	parked atomic.Bool
	bell   chan struct{}
}

// wake rings the bell of each given shard whose dispatcher is parked.
// The send never blocks, and a wake-up is never lost: park publishes
// parked before its last look for work, and every caller has changed
// what park looks at before it calls wake.
func wake(shards ...*shard) {
	for _, sh := range shards {
		if sh.parked.Load() {
			select {
			case sh.bell <- struct{}{}:
			default:
			}
		}
	}
}

// dispatcherLoop is the first holder of shard sh's dispatcher identity:
// once-per-identity setup, then the loop.
func (s *Server) dispatcherLoop(sh *shard) {
	if s.opts.PinThreads {
		runtime.LockOSThread()
	}
	s.handler.SetupWorker(sh.ex.id)
	s.serveDispatcher(sh)
}

// serveDispatcher is shard sh's dispatcher loop, run by whichever
// goroutine holds the identity: like a worker's, it changes hands when a
// request the dispatcher is running inline yields (work conservation
// only). sh.done belongs to the identity and is closed by the holder
// that sees the shard drained; a goroutine that detached mid-loop
// returns without touching the shard again.
func (s *Server) serveDispatcher(sh *shard) {
	multi := len(s.shards) > 1
	var idleSince time.Time

	for {
		progress := false
		aborting := s.abort.Load()

		// 0. Policy swap: when the control plane has retargeted the
		// discipline (SetPolicy), drain this shard's queue into a fresh
		// one of the new kind. This is the quiesce point — between
		// dispatch decisions, under the queue lock — so queued requests
		// are re-ordered, never lost or duplicated.
		if ps := s.polState.Load(); ps.epoch != sh.polEpoch {
			sh.polEpoch = ps.epoch
			sh.q.SwapPolicy(ps.name)
			sh.cascade = policyClassed(ps.name)
			progress = true
		}

		// 1. Ingest submissions (bounded batch per iteration, so
		// preemption signaling stays timely). Runs in abort mode too:
		// workers re-submit preempted tasks here and must never be
		// stranded against a departed dispatcher.
		for i := 0; i < 64; i++ {
			select {
			case t := <-sh.submit:
				s.ingest(sh, t)
				progress = true
				continue
			default:
			}
			break
		}

		// 2. Preemption signaling: write the flag of any local worker
		// whose current request outlived its quantum (quantumFor). Once
		// the drain deadline has expired every running request is
		// overdue, whatever its quantum: it yields at its next Poll and
		// its worker retires it. The flag carries the epoch being
		// preempted, so a signal aimed at a finished request is inert
		// for its successor — no check-then-act retraction window. That
		// is also what makes the unlocked read of the running record
		// safe: the worker stores the start before it publishes the
		// epoch word, so a start read after the word is that slice's or a
		// later one's — at worst the pass waits a round, or flags an
		// epoch that has already ended. Re-reading the word and skipping
		// on a change just saves the wasted signal and keeps the traced
		// request id honest. With no quantum in force the pass is
		// skipped, and with it the reads of the records the workers are
		// busy writing.
		if aborting || s.quantum.Load() > 0 || s.anyClassQuantum() {
			shrink := !aborting && s.critShrink(sh)
			var now int64 // ns since t0; read once, and only if a request is running
			for i, w := range sh.workers {
				ex := s.workers[w]
				run := ex.running.Load()
				epoch := run >> 8
				if run == 0 || epoch == sh.lastFlagged[i] {
					continue
				}
				start, id := ex.runStart.Load(), ex.runID.Load()
				if ex.running.Load() != run {
					continue
				}
				if !aborting {
					q := s.quantumFor(uint8(run), shrink)
					if q <= 0 {
						continue
					}
					if now == 0 {
						now = int64(time.Since(s.t0))
					}
					if now-start < int64(q) {
						continue
					}
				}
				ex.flag.Store(epoch)
				sh.lastFlagged[i] = epoch
				if s.tr != nil {
					s.tr.Record(sh.writer, obs.EvPreemptSignal, id, int64(w))
				}
				progress = true
			}
		}

		if aborting {
			// Fail everything queued or parked.
			if s.failPending(sh) {
				progress = true
			}
		} else {
			// 2b. Deadline sweep: requests stuck behind full worker
			// queues still expire. The heap head check is O(1), so this
			// runs every iteration instead of on a coarse timer.
			if s.opts.RequestTimeout > 0 && sh.q.Len() > 0 {
				for _, t := range sh.q.SweepExpired(time.Now()) {
					s.retire(sh.ex, t, ErrDeadlineExceeded)
					progress = true
				}
			}

			// 3. JBSQ push: move requests to the shortest non-full
			// local queue, expiring lazily at the pop, stealing from
			// the longest sibling when the local queue runs dry. The
			// slot is reserved before the pop (a Do caller takes all of
			// an idle worker's: see place) and given back when the pop
			// brings nothing to run.
			for s.backlog() {
				w := s.reserve(sh)
				if w < 0 {
					wake(s.shards...) // a parked sibling may steal what cannot be placed here
					break
				}
				t, ok := sh.q.Pop()
				if !ok && multi {
					t, ok = s.steal(sh)
				}
				if !ok {
					s.occ[w].Add(-1)
					break
				}
				if !t.deadline.IsZero() && t.expired(time.Now()) {
					s.occ[w].Add(-1)
					s.retire(sh.ex, t, ErrDeadlineExceeded)
					progress = true
					continue
				}
				if s.tr != nil {
					s.tr.Record(sh.writer, obs.EvDispatch, t.id, int64(w))
				}
				s.locals[w] <- t
				progress = true
			}

			// 4. Work conservation (also during graceful drain — the
			// dispatcher helping finishes the backlog sooner).
			if s.opts.WorkConserving && !progress {
				t := sh.saved
				if t == nil {
					t = s.takeNonStarted(sh)
				}
				if t != nil {
					if s.dispatcherRun(sh, t) {
						return
					}
					progress = true
				}
			}
		}

		if s.stopped.Load() && s.drained(sh) {
			if s.opts.PinThreads {
				runtime.UnlockOSThread()
			}
			close(sh.done)
			return
		}
		if progress {
			idleSince = time.Time{}
		} else if idleSince.IsZero() {
			idleSince = time.Now()
			runtime.Gosched()
		} else if time.Since(idleSince) < parkAfter || !s.park(sh) {
			runtime.Gosched()
		}
	}
}

// ingest moves one submission from sh's ingress buffer into its policy
// queue.
func (s *Server) ingest(sh *shard, t *task) {
	if s.tr != nil {
		if t.enqueueTS.IsZero() {
			t.enqueueTS = time.Now()
		}
		s.tr.Record(sh.writer, obs.EvEnqueueCentral, t.id, 0)
	}
	if testIngestGate != nil {
		testIngestGate()
	}
	sh.q.Push(t)
	sh.inbound.Add(-1)
}

// park blocks sh's idle dispatcher until a submission arrives (ingested
// here, like the loop's own) or wake rings, and reports whether it
// blocked. It does not while the loop has anything to watch: a drain (or
// its abort), a policy swap, a local slice running (whose quantum it
// would have to signal), or work queued on any shard — its own, or a
// sibling's to steal. (A saved request cannot be waiting: an idle
// iteration would have run it.) It publishes parked before it looks, and
// everyone who can change what it looks at does so before calling wake —
// a slice stores its running record before its first Poll, a shard
// pushes the backlog it cannot place, Stop and SetPolicy store their
// state — so with sequentially consistent atomics either park sees the
// change or wake sees parked. The drain abort needs no wake of its own:
// it comes after Stop's, and a stopped loop never parks.
func (s *Server) park(sh *shard) bool {
	sh.parked.Store(true)
	defer sh.parked.Store(false)
	if s.stopped.Load() || s.polState.Load().epoch != sh.polEpoch || s.backlog() {
		return false
	}
	for _, w := range sh.workers {
		if s.workers[w].running.Load() != 0 {
			return false
		}
	}
	if testParkGate != nil {
		testParkGate(sh)
	}
	select {
	case t := <-sh.submit:
		s.ingest(sh, t)
	case <-sh.bell:
	}
	return true
}

// backlog reports whether work is queued on any shard: this one's to
// place, or a sibling's to steal.
func (s *Server) backlog() bool {
	for _, sh := range s.shards {
		if sh.q.Len() > 0 {
			return true
		}
	}
	return false
}

// reserve takes a slot on the shard-local worker with the fewest queued
// requests and returns it, or -1 when every local queue is at the JBSQ
// bound. A Do caller takes all of an idle worker's slots with a
// compare-and-swap of its own (place), so the slot is taken with one
// too, on the occupancy that was read: JBSQ(k) holds whoever wins.
func (s *Server) reserve(sh *shard) int {
	for {
		best, bestOcc := -1, int32(s.opts.QueueBound)
		for _, w := range sh.workers {
			if o := s.occ[w].Load(); o < bestOcc {
				best, bestOcc = w, o
			}
		}
		if best < 0 || s.occ[best].CompareAndSwap(bestOcc, bestOcc+1) {
			return best
		}
	}
}

// steal pops one never-started request from the longest sibling queue.
// Only never-started requests migrate: once a request has run on a
// shard's worker its requeue path and epoch bookkeeping stay with that
// shard, mirroring the paper's rule that dispatcher-run requests never
// migrate (§3.3). The thief dispatches the stolen task on this same
// loop iteration — before its own drained check — so a steal racing
// Stop can never strand the task.
func (s *Server) steal(sh *shard) (*task, bool) {
	var victim *shard
	best := 0
	for _, sib := range s.shards {
		if sib == sh {
			continue
		}
		if l := sib.q.Len(); l > best {
			best, victim = l, sib
		}
	}
	if victim == nil {
		return nil, false
	}
	t, ok := victim.q.PopNonStarted()
	if !ok {
		return nil, false
	}
	if testStealGate != nil {
		testStealGate()
	}
	s.stats.steals.Add(1)
	return t, true
}

// takeNonStarted pops the next never-started request from the shard's
// queue — the only kind the dispatcher may run itself (§3.3) — but only
// when every local worker queue is full.
func (s *Server) takeNonStarted(sh *shard) *task {
	for _, w := range sh.workers {
		if s.occ[w].Load() < int32(s.opts.QueueBound) {
			return nil
		}
	}
	t, _ := sh.q.PopNonStarted()
	return t
}

// dispatcherRun gives t — fresh from the queue, or the shard's saved
// request — its next slice on the work-conserving dispatcher itself
// (§3.3): what is specific to a dispatcher is the trigger (nobody
// writes its flag, so Poll self-preempts on the slice timer runSlice
// starts) and where a preempted request goes (the saved slot:
// dispatcher-run requests never migrate). It reports whether the
// calling goroutine detached from the dispatcher identity (see
// runSlice) and must leave the loop.
func (s *Server) dispatcherRun(sh *shard, t *task) (detached bool) {
	sh.saved = nil
	now := time.Now()
	if t.expired(now) {
		s.retire(sh.ex, t, ErrDeadlineExceeded)
		return false
	}
	preempted, detached := s.runSlice(sh.ex, t, now)
	switch {
	case detached:
		return true
	case preempted:
		sh.saved = t
	default:
		s.stats.dispatcherRun.Add(1)
	}
	return false
}

// quantumFor is the quantum a running request of the given class is
// held to: the class's override when one is set, the
// runtime-adjustable global quantum otherwise, divided by
// critQuantumShrink for a non-critical request when shrink is on. 0
// means the request is not preempted.
func (s *Server) quantumFor(class uint8, shrink bool) time.Duration {
	q := s.classQuanta[class].Load()
	if q <= 0 {
		q = s.quantum.Load()
	}
	if shrink && SLOClass(class) != ClassCritical {
		q /= critQuantumShrink
	}
	return time.Duration(q)
}

// critShrink reports whether running non-critical requests get the
// tightened quantum on this pass: ClassCritical work is waiting in the
// shard's queue and class-aware preemption is armed — by admission
// control, by the shard's discipline being a cascade, or by a class
// quantum being set.
func (s *Server) critShrink(sh *shard) bool {
	return sh.q.CriticalLen() > 0 &&
		(s.opts.ClassAdmission || sh.cascade || s.anyClassQuantum())
}

// anyClassQuantum reports whether any class has a quantum override.
func (s *Server) anyClassQuantum() bool {
	for c := range s.classQuanta {
		if s.classQuanta[c].Load() > 0 {
			return true
		}
	}
	return false
}

// failPending completes every queued or parked request of this shard
// with ErrServerStopped; it reports whether it failed anything.
func (s *Server) failPending(sh *shard) bool {
	pending := sh.q.DrainAll()
	if sh.saved != nil {
		pending = append(pending, sh.saved)
		sh.saved = nil
	}
	for _, t := range pending {
		s.retire(sh.ex, t, ErrServerStopped)
	}
	return len(pending) > 0
}

// drained reports whether this shard has no pending work anywhere:
// local worker queues, ingress, central queue, or saved slot. A stolen
// task never floats unaccounted between shards (see steal), so every
// shard observing its own drain implies the server has drained. The
// occupancies are read first: a worker re-submits a preempted task
// before it releases its occupancy, so once they all read zero whatever
// a worker was holding is already in the ingress buffer read after
// them. Read the other way round, a hand-off landing between the two
// reads shows an empty buffer and then an idle worker, and the
// dispatcher exits with the task in the buffer.
func (s *Server) drained(sh *shard) bool {
	for _, w := range sh.workers {
		if s.occ[w].Load() != 0 {
			return false
		}
	}
	return len(sh.submit) == 0 && sh.q.Len() == 0 && sh.saved == nil
}
