// Dispatch layer: the dispatcher loop. It owns the central queue and
// every worker: it ingests submissions, expires deadlines, JBSQ-pushes
// to the shortest local queue (§3.2), and runs requests itself when
// every local queue is full (§3.3). It watches no running slice: every
// slice times itself (sliceOver). A loop that has had nothing to do for
// parkAfter blocks until something needs it (park) instead of spinning
// on a core the host may not have to spare.
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
// quantum while ClassCritical work is queued, so critical
// requests reach a CPU within a fraction of the normal quantum instead
// of a full one — the dispatch-layer half of the priority cascade (the
// queue half is the cascade discipline's tier order). It is armed only
// by configuration that is itself about scheduling classes — see
// Server.critShrink — never by the tracer: a server that merely
// measures schedules exactly like one that does not.
const critQuantumShrink = 4

// dispatcher is the dispatcher's state: policy queue, ingress buffer,
// and the work-conserving executor identity. Only the goroutine holding
// that identity touches q and saved.
type dispatcher struct {
	q      *centralQueue
	submit chan *task
	// inbound counts the tasks accepted and not yet in q: in submit, or
	// received from it and not yet pushed, which len(submit) and q.Len()
	// both miss. A sender counts a task before its send and ingest
	// uncounts it after the push, so place, which reads inbound before
	// q, sees every accepted task in one or the other.
	inbound atomic.Int32
	// ex is the dispatcher-as-executor identity for work conservation.
	ex *executor
	// saved parks a preempted dispatcher-run request between slices;
	// such requests never migrate (§3.3).
	saved *task
	done  chan struct{} // the dispatcher exited
	// parked is set while the loop is blocked, or about to block, in
	// park; bell is the one-slot doorbell wake rings.
	parked atomic.Bool
	bell   chan struct{}
}

// wake rings the dispatcher's bell if it is parked. The send never
// blocks, and a wake-up is never lost: park publishes parked before its
// last look for work, and every caller has changed what park looks at
// before it calls wake.
func (s *Server) wake() {
	if s.disp.parked.Load() {
		select {
		case s.disp.bell <- struct{}{}:
		default:
		}
	}
}

// dispatcherLoop is the first holder of the dispatcher identity:
// once-per-identity setup, then the loop.
func (s *Server) dispatcherLoop() {
	if s.opts.PinThreads {
		runtime.LockOSThread()
	}
	s.handler.SetupWorker(s.disp.ex.id)
	s.serveDispatcher()
}

// serveDispatcher is the dispatcher loop, run by whichever goroutine
// holds the identity: like a worker's, it changes hands when a request
// the dispatcher is running inline yields, and the hand-off orders
// every access to the central queue. d.done belongs to the identity and
// is closed by the holder that sees the server drained; a goroutine
// that detached mid-loop returns without touching the dispatcher again.
func (s *Server) serveDispatcher() {
	d := s.disp
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
			case t := <-d.submit:
				s.ingest(t)
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
			if s.failPending() {
				progress = true
			}
		} else {
			// 2. Deadline sweep: requests stuck behind full worker
			// queues still expire. The heap head check is O(1), so this
			// runs every iteration instead of on a coarse timer.
			if s.opts.RequestTimeout > 0 && d.q.Len() > 0 {
				for _, t := range d.q.SweepExpired(nanotime()) {
					s.retire(d.ex, t, ErrDeadlineExceeded)
					progress = true
				}
			}

			// 3. JBSQ push: move requests to the shortest non-full
			// local queue, expiring lazily at the pop. The slot is
			// reserved before the pop (a Do caller takes all of an idle
			// worker's: see place) and given back when the pop brings
			// nothing to run.
			for d.q.Len() > 0 {
				w := s.reserve()
				if w < 0 {
					break
				}
				t, ok := d.q.Pop()
				if !ok {
					s.occ[w].Add(-1)
					break
				}
				if t.deadline != 0 && t.expired(nanotime()) {
					s.occ[w].Add(-1)
					s.retire(d.ex, t, ErrDeadlineExceeded)
					progress = true
					continue
				}
				if s.tr != nil {
					s.tr.Record(obs.WriterDispatcher, obs.EvDispatch, t.id, int64(w), nanotime())
				}
				s.locals[w] <- t
				progress = true
			}

			// 4. Work conservation (also during graceful drain — the
			// dispatcher helping finishes the backlog sooner).
			if !progress {
				t := d.saved
				if t == nil {
					t = s.takeNonStarted()
				}
				if t != nil {
					if s.dispatcherRun(t) {
						return
					}
					progress = true
				}
			}
		}

		if s.stopped.Load() && s.drained() {
			if s.opts.PinThreads {
				runtime.UnlockOSThread()
			}
			close(d.done)
			return
		}
		if progress {
			idleSince = 0
		} else if idleSince == 0 {
			idleSince = nanotime()
			runtime.Gosched()
		} else if nanotime()-idleSince < int64(parkAfter) || !s.park() {
			runtime.Gosched()
		}
	}
}

// ingest moves one submission from the ingress buffer into the policy
// queue.
func (s *Server) ingest(t *task) {
	if s.tr != nil {
		now := nanotime()
		if t.enqueueTS == 0 {
			t.enqueueTS = now
		}
		s.tr.Record(obs.WriterDispatcher, obs.EvEnqueueCentral, t.id, 0, now)
	}
	if testIngestGate != nil {
		testIngestGate()
	}
	s.disp.q.Push(t)
	s.disp.inbound.Add(-1)
}

// park blocks the idle dispatcher until a submission arrives (ingested
// here, like the loop's own) or wake rings, and reports whether it
// blocked. It does not while the loop has anything to do: a drain (or
// its abort), or queued work. (A saved request cannot be waiting: an
// idle iteration would have run it. A running slice needs no watcher:
// it times itself.) Only the dispatcher itself fills its queue, and
// what arrives from outside comes through the ingress park selects on
// — except Stop, which stores its state before it calls wake; park
// publishes parked before it looks, so with sequentially consistent
// atomics either park sees the stop or wake sees parked. The drain
// abort needs no wake of its own: it comes after Stop's, and a stopped
// loop never parks.
func (s *Server) park() bool {
	d := s.disp
	d.parked.Store(true)
	defer d.parked.Store(false)
	if s.stopped.Load() || d.q.Len() > 0 {
		return false
	}
	if testParkGate != nil {
		testParkGate()
	}
	select {
	case t := <-d.submit:
		s.ingest(t)
	case <-d.bell:
	}
	return true
}

// reserve takes a slot on the worker with the fewest queued requests and
// returns it, or -1 when every local queue is at the JBSQ bound. A Do
// caller takes all of an idle worker's slots with a compare-and-swap of
// its own (place), so the slot is taken with one too, on the occupancy
// that was read: JBSQ(k) holds whoever wins.
func (s *Server) reserve() int {
	for {
		best, bestOcc := -1, int32(s.opts.QueueBound)
		for w := range s.occ {
			if o := s.occ[w].Load(); o < bestOcc {
				best, bestOcc = w, o
			}
		}
		if best < 0 || s.occ[best].CompareAndSwap(bestOcc, bestOcc+1) {
			return best
		}
	}
}

// takeNonStarted pops the next never-started request from the queue —
// the only kind the dispatcher may run itself (§3.3) — but only when
// every worker queue is full. An empty queue answers first: an idle
// dispatcher then reads no occupancy line, which a placed Do caller
// writes on every request.
func (s *Server) takeNonStarted() *task {
	if s.disp.q.Len() == 0 {
		return nil
	}
	if testConserveGate != nil && !testConserveGate() {
		return nil
	}
	for w := range s.occ {
		if s.occ[w].Load() < int32(s.opts.QueueBound) {
			return nil
		}
	}
	t, _ := s.disp.q.PopNonStarted()
	return t
}

// dispatcherRun gives t — fresh from the queue, or the saved request —
// its next slice on the work-conserving dispatcher itself
// (§3.3): what is specific to a dispatcher is where a preempted request
// goes (the saved slot: dispatcher-run requests never migrate). It
// reports whether the calling goroutine detached from the dispatcher
// identity (see runSlice) and must leave the loop.
func (s *Server) dispatcherRun(t *task) (detached bool) {
	d := s.disp
	d.saved = nil
	var resp Response
	now := nanotime()
	if t.expired(now) {
		s.retire(d.ex, t, ErrDeadlineExceeded)
		return false
	}
	preempted, detached := s.runSlice(d.ex, t, now, &resp)
	switch {
	case detached:
		return true
	case preempted:
		d.saved = t
	default:
		d.ex.n.dispatcherRun.Add(1)
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

// critShrink reports whether non-critical requests get the tightened
// quantum now: class-aware preemption is armed — by admission control
// or by a cascade discipline, both fixed at New — and ClassCritical
// work is waiting in the queue. Poll calls it, so it reads only
// configuration and one atomic.
func (s *Server) critShrink() bool {
	return s.classShrink && s.disp.q.CriticalLen() > 0
}

// failPending completes every queued or parked request with
// ErrServerStopped; it reports whether it failed anything.
func (s *Server) failPending() bool {
	d := s.disp
	pending := d.q.DrainAll()
	if d.saved != nil {
		pending = append(pending, d.saved)
		d.saved = nil
	}
	for _, t := range pending {
		s.retire(d.ex, t, ErrServerStopped)
	}
	return len(pending) > 0
}

// drained reports whether the server has no pending work anywhere:
// local worker queues, ingress, central queue, or saved slot. The
// occupancies are read first: a worker re-submits a preempted task
// before it releases its occupancy, so once they all read zero whatever
// a worker was holding is already in the ingress buffer read after
// them. Read the other way round, a hand-off landing between the two
// reads shows an empty buffer and then an idle worker, and the
// dispatcher exits with the task in the buffer.
func (s *Server) drained() bool {
	for w := range s.occ {
		if s.occ[w].Load() != 0 {
			return false
		}
	}
	d := s.disp
	return len(d.submit) == 0 && d.q.Len() == 0 && d.saved == nil
}
