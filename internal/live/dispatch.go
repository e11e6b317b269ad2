// Dispatch layer: per-shard dispatcher loops. Each shard owns a
// disjoint worker subset and its own central queue; its loop ingests
// submissions, expires deadlines, JBSQ-pushes to the shortest local
// queue (§3.2), steals never-started requests from the longest sibling
// queue when it would otherwise idle, and runs requests itself when
// every local queue is full (§3.3). It watches no running slice: every
// slice times itself (sliceOver). One shard is exactly the paper's
// single dispatcher. A loop that has had nothing to do for parkAfter
// blocks until something needs it (park) instead of spinning on a core
// the host may not have to spare.
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

// dispatcherSlice is how long a work-conserving dispatcher runs a request
// before it gets back to its own duties when no quantum is in force.
const dispatcherSlice = 100 * time.Microsecond

// critQuantumShrink divides a running lower-tier request's effective
// quantum while ClassCritical work is queued on its shard, so critical
// requests reach a CPU within a fraction of the normal quantum instead
// of a full one — the dispatch-layer half of the priority cascade (the
// queue half is the cascade discipline's tier order). It is armed only
// by configuration that is itself about scheduling classes — see
// Server.critShrink — never by the tracer: a server that merely
// measures schedules exactly like one that does not.
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
	done  chan struct{} // this shard's dispatcher exited
	// parked is set while the loop is blocked, or about to block, in
	// park; bell is the one-slot doorbell wake rings.
	parked atomic.Bool
	bell   chan struct{}
}

// wake rings the bell of every shard whose dispatcher is parked. The
// send never blocks, and a wake-up is never lost: park publishes parked
// before its last look for work, and every caller has changed what park
// looks at before it calls wake.
func (s *Server) wake() {
	for _, sh := range s.shards {
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
// request the dispatcher is running inline yields. sh.done belongs to the
// identity and is closed by the holder that sees the shard drained; a
// goroutine that detached mid-loop returns without touching the shard
// again.
func (s *Server) serveDispatcher(sh *shard) {
	multi := len(s.shards) > 1
	var idleSince int64 // nanotime; 0 while the loop makes progress

	for {
		progress := false
		aborting := s.abort.Load()

		// 1. Ingest submissions (bounded batch per iteration, so
		// placement keeps pace). Runs in abort mode too:
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

		if aborting {
			// Fail everything queued or parked. Running requests see the
			// abort at their next check (sliceOver) and are retired on
			// the way out.
			if s.failPending(sh) {
				progress = true
			}
		} else {
			// 2. Deadline sweep: requests stuck behind full worker
			// queues still expire. The heap head check is O(1), so this
			// runs every iteration instead of on a coarse timer.
			if s.opts.RequestTimeout > 0 && sh.q.Len() > 0 {
				for _, t := range sh.q.SweepExpired(nanotime()) {
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
					s.wake() // a parked sibling may steal what cannot be placed here
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
				if t.deadline != 0 && t.expired(nanotime()) {
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
			if !progress {
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
			idleSince = 0
		} else if idleSince == 0 {
			idleSince = nanotime()
			runtime.Gosched()
		} else if nanotime()-idleSince < int64(parkAfter) || !s.park(sh) {
			runtime.Gosched()
		}
	}
}

// ingest moves one submission from sh's ingress buffer into its policy
// queue.
func (s *Server) ingest(sh *shard, t *task) {
	if s.tr != nil {
		if t.enqueueTS == 0 {
			t.enqueueTS = nanotime()
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
// blocked. It does not while the loop has anything to do: a drain (or
// its abort), or work queued on any shard — its own, or a sibling's to
// steal. (A saved request cannot be waiting: an idle iteration would
// have run it. A running slice needs no watcher: it times itself.) It
// publishes parked before it looks, and everyone who can change what it
// looks at does so before calling wake — a shard pushes the backlog it
// cannot place, Stop stores its state — so with sequentially consistent
// atomics either park sees the change or wake sees parked. The drain abort needs no wake of its own:
// it comes after Stop's, and a stopped loop never parks.
func (s *Server) park(sh *shard) bool {
	sh.parked.Store(true)
	defer sh.parked.Store(false)
	if s.stopped.Load() || s.backlog() {
		return false
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
// shard's worker its requeue path stays with that shard, mirroring the
// paper's rule that dispatcher-run requests never migrate (§3.3). The
// thief dispatches the stolen task on this same loop iteration — before
// its own drained check — so a steal racing Stop can never strand the
// task.
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
	sh.ex.n.steals.Add(1)
	return t, true
}

// takeNonStarted pops the next never-started request from the shard's
// queue — the only kind the dispatcher may run itself (§3.3) — but only
// when every local worker queue is full. An empty queue answers first:
// an idle dispatcher then reads no occupancy line, which a placed Do
// caller writes on every request.
func (s *Server) takeNonStarted(sh *shard) *task {
	if sh.q.Len() == 0 {
		return nil
	}
	if testConserveGate != nil && !testConserveGate() {
		return nil
	}
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
// (§3.3): what is specific to a dispatcher is where a preempted request
// goes (the saved slot: dispatcher-run requests never migrate). It
// reports whether the calling goroutine detached from the dispatcher
// identity (see runSlice) and must leave the loop.
func (s *Server) dispatcherRun(sh *shard, t *task) (detached bool) {
	sh.saved = nil
	var resp Response
	now := nanotime()
	if t.expired(now) {
		s.retire(sh.ex, t, ErrDeadlineExceeded)
		return false
	}
	preempted, detached := s.runSlice(sh.ex, t, now, &resp)
	switch {
	case detached:
		return true
	case preempted:
		sh.saved = t
	default:
		sh.ex.n.dispatcherRun.Add(1)
	}
	return false
}

// quantumFor is the quantum a running request of the given class is
// held to: Options.Quantum, divided by critQuantumShrink for a
// non-critical request when shrink is on. 0 means the request is not
// preempted.
func (s *Server) quantumFor(class uint8, shrink bool) time.Duration {
	q := s.opts.Quantum
	if shrink && SLOClass(class) != ClassCritical {
		q /= critQuantumShrink
	}
	return q
}

// critShrink reports whether non-critical requests running on shard sh
// get the tightened quantum now: class-aware preemption is armed — by
// admission control or by a cascade discipline, both fixed at New — and
// ClassCritical work is waiting in the shard's queue. Poll calls it, so
// it reads only configuration and one atomic.
func (s *Server) critShrink(sh *shard) bool {
	return s.classShrink && sh.q.CriticalLen() > 0
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
