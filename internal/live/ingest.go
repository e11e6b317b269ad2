// Ingest layer: admission control. Submit builds the task, applies the
// deadline, reads the payload's service hint and SLOClass (always: what
// consumes them — the discipline, a class quantum — can change while
// the request is queued), checks the stop gate, and places the task on
// a shard's ingress buffer — round-robin across shards with fallback to
// any sibling with room — or, for a Do or TryDo on a shard with nothing
// queued and an idle worker, hands it to the caller to run as that
// worker (place).
//
// Admission is class-aware when Options.ClassAdmission is on: each
// class has an ingress-occupancy watermark (Server.classLimit) and is
// rejected once every shard's buffer has crossed it. Critical admits up
// to the full buffer; standard stops short of the critical reserve
// (ErrQueueFull); sheddable is shed earliest (ErrShed), so under
// sustained overload the buffers drain sheddable load first and always
// keep headroom for critical arrivals. The occupancy probe reads
// len(chan), which is racy against concurrent submitters — the race
// only ever misjudges by the handful of in-flight sends, and errs on
// whichever side the interleaving lands, so the watermark holds in
// expectation and the exactly-one-response contract is untouched.
package live

import (
	"concord/internal/obs"
)

// Submit enqueues a request and returns a channel that will receive
// exactly one response. The channel has capacity 1; the caller need not
// read it immediately. Submit never blocks: after Stop has begun it
// responds ErrServerStopped, and when every shard's submit buffer is
// full (or past the payload's class watermark) it responds ErrQueueFull
// — ErrShed for sheddable payloads dropped by admission control.
func (s *Server) Submit(payload any) <-chan Response {
	ch := make(chan Response, 1)
	s.ingress(s.newRequest(payload), ch, nil)
	return ch
}

// SubmitFunc is Submit with a completion callback instead of a response
// channel: done is invoked exactly once with the request's Response —
// synchronously on the submitting goroutine when the request is
// rejected (stop or backpressure), otherwise on the goroutine serving
// the executor that completes it — the worker's or dispatcher's own,
// between two requests, whether the handler ran inline there or on a
// detached goroutine it resumed. done must not block: it runs on the
// worker or dispatcher hot path. Connection layers use it to coalesce
// completions into batched flushes without a channel allocation per
// request; the Response's Req field carries the submitted payload back
// so a single shared callback can correlate without a per-request
// closure.
func (s *Server) SubmitFunc(payload any, done func(Response)) {
	s.ingress(s.newRequest(payload), nil, done)
}

// TryDo is Do for a request that can be placed and SubmitFunc for one
// that cannot, and it never waits on a queue. When the request's shard
// has nothing queued and one of its workers is idle, TryDo runs the
// request on the calling goroutine as that worker, as Do does, and
// returns its Response and true; done is not called. Otherwise it submits
// the request exactly as SubmitFunc(payload, done) would and returns
// false at once. A connection reader uses it to serve what it can
// without a hand-off while it keeps reading: a reader that waited on a
// queue would stop reading, and a client pipelining behind the request
// would be served as if in lockstep.
func (s *Server) TryDo(payload any, done func(Response)) (resp Response, placed bool) {
	t := s.newRequest(payload)
	if placed = s.runPlaced(t, &resp); !placed {
		s.ingress(t, nil, done)
	}
	return resp, placed
}

// newRequest builds the task for payload, stamped with its arrival: the
// part of ingest every entry point shares, before the request is placed
// or takes the ingress.
func (s *Server) newRequest(payload any) *task {
	t := newTask()
	s.newID(t)
	t.payload = payload
	t.arrival = nanotime()
	if d := s.opts.RequestTimeout; d > 0 {
		t.deadline = t.arrival + int64(d)
	}
	if h, ok := payload.(Hinted); ok {
		if hint := int64(h.ServiceHint()); hint > 0 {
			t.hintNS = hint
		}
	}
	if c, ok := payload.(SLOClassed); ok {
		if cl := c.SLOClass(); cl > 0 && cl < NumClasses {
			t.class = uint8(cl)
		}
	}
	if s.tr != nil {
		// Wire-path attribution: the frontend stamped the request before
		// it had an id, so record its events retroactively. Snapshot
		// sorts by timestamp, so late recording is invisible downstream.
		if nt, ok := payload.(NetTimed); ok {
			if read, parsed := nt.NetTimes(); !read.IsZero() {
				t.readTS = int64(read.Sub(epoch))
				s.tr.RecordAt(obs.WriterNet, obs.EvFrameRead, t.id, 0, read)
				if !parsed.IsZero() {
					s.tr.RecordAt(obs.WriterNet, obs.EvParsed, t.id, 0, parsed)
				}
			}
		}
	}
	return t
}

// runPlaced gives t its first slice on its caller, a Do or TryDo, when
// place lends it an idle worker ex, and reports whether it did. It runs
// as ex in every respect — quantum, trace, finish — while ex's own loop
// stays blocked on its empty local queue, and nobody else places on ex:
// place took every one of its JBSQ slots. The slice starts at t's
// arrival: t was not queued, so it cannot have expired, a drain abort
// ends it at its first check, and, traced, it has no hand-off or queue
// wait. A request that finishes within the slice is answered up the
// caller's stack, in *resp: no channel, two clock reads and three locked
// operations in all — place's compare-and-swap, finish's one count on
// ex's line, and the release of the slots. If it yields, adopt counts
// it, requeues it and gives the slots back; otherwise they are given
// back here.
func (s *Server) runPlaced(t *task, resp *Response) bool {
	w := s.place(t)
	if w < 0 {
		return false
	}
	ex := s.workers[w] // the caller holds the worker's identity now
	if s.tr != nil {
		s.tr.RecordAt(obs.WriterClient, obs.EvSubmit, t.id, 0, at(t.arrival))
	}
	ex.lent = true
	if _, detached := s.runSlice(ex, t, t.arrival, resp); !detached {
		ex.lent = false
		s.occ[w].Store(0)
	}
	return true
}

// ingress gives t its owner, the channel ch or the callback done, and
// puts it on a shard's ingress buffer, or rejects it: Stop has begun, or
// no shard has room under its class watermark.
func (s *Server) ingress(t *task, ch chan Response, done func(Response)) {
	t.result, t.done = ch, done
	s.submitMu.RLock()
	if s.stopping {
		s.submitMu.RUnlock()
		s.reject(t, ErrServerStopped, obs.StatusStopped)
		return
	}
	if testSubmitGate != nil {
		testSubmitGate()
	}
	// Snapshot the fields needed after enqueue: the moment enqueue
	// succeeds a worker may complete the task and release it to the
	// pool, so touching t again would race with its reset.
	id, class, arrival := t.id, t.class, t.arrival
	if s.enqueue(t) {
		s.stats.classSubmitted[class].Add(1)
		if s.tr != nil {
			// Stamped at arrival, not now: by now the dispatcher may have
			// ingested the task, and an EvEnqueueCentral that sorts before
			// its EvSubmit makes the analyzer count the ingress twice.
			s.tr.RecordAt(obs.WriterClient, obs.EvSubmit, id, 0, at(arrival))
		}
		s.submitMu.RUnlock()
	} else {
		s.submitMu.RUnlock()
		err, status := ErrQueueFull, int64(obs.StatusQueueFull)
		if s.opts.ClassAdmission && SLOClass(t.class) == ClassSheddable {
			err, status = ErrShed, obs.StatusShed
			s.stats.shed.Add(1)
		}
		s.reject(t, err, status)
	}
}

// reject delivers a rejection response, records it on the tracer, and
// recycles the task (a rejected task was never enqueued, so nothing can
// alias it).
func (s *Server) reject(t *task, err error, status int64) {
	s.stats.classRejected[t.class].Add(1)
	if s.tr != nil {
		s.tr.Record(obs.WriterClient, obs.EvReject, t.id, status)
	}
	resp := Response{ID: t.id, Err: err, Req: t.payload, Done: at(nanotime())}
	t.deliver(&resp)
	t.release()
}

// place dispatches a Do or TryDo request to its caller: when t's shard
// has no accepted request that is not yet in service — none inbound (in
// the ingress buffer, or received by the dispatcher and not yet pushed)
// and none in the policy queue, so no queued request can be overtaken,
// whatever the discipline — and one of its workers is idle, it takes
// every JBSQ slot of that worker with one compare-and-swap and returns
// the worker, whose first slice of t the caller then runs itself
// (runPlaced); otherwise it returns -1 and t takes the ingress. Only those
// two place: their callers run the request rather than hand it off,
// where Submit and SubmitFunc promise never to run it on the caller. The
// enqueue and dispatch events are recorded here, on the client's ring,
// and stamped at arrival, so Breakdown and obs.Analyze still add up: a
// placed request has no hand-off and no queue wait.
//
// A placed request does not take submitMu: place checks stopped after
// its compare-and-swap instead, and gives the slots back and declines if
// Stop has begun, so the request takes the ingress path, which rejects
// it. The atomics are sequentially consistent, and a dispatcher reads
// the occupancies (drained) only after it has seen stopped set: either
// the placer sees the stop, or the dispatcher sees the occupancy and
// does not call its shard drained until the request is answered.
func (s *Server) place(t *task) int {
	// Not before Start has set the workers up, and not under PinThreads:
	// a lent slice would not run on the worker's pinned thread. inbound is
	// read before the queue: a task leaves it only once pushed.
	sh := s.shards[0]
	if len(s.shards) > 1 {
		sh = s.shards[t.id%uint64(len(s.shards))]
	}
	if s.opts.PinThreads || !s.started.Load() || sh.inbound.Load() > 0 || sh.q.Len() > 0 {
		return -1
	}
	// From t's home (a pooled task may bring one from a bigger shard),
	// and with a load first: a compare-and-swap that fails still takes
	// the line from the worker's holder.
	for k, i := 0, t.home; k < len(sh.workers); k, i = k+1, i+1 {
		if i >= len(sh.workers) {
			i = 0
		}
		w := sh.workers[i]
		if s.occ[w].Load() != 0 || !s.occ[w].CompareAndSwap(0, int32(s.opts.QueueBound)) {
			continue
		}
		if testPlaceGate != nil {
			testPlaceGate()
		}
		if s.stopped.Load() {
			s.occ[w].Store(0)
			return -1
		}
		if s.tr != nil {
			t.enqueueTS = t.arrival
			s.tr.Record(obs.WriterClient, obs.EvEnqueueCentral, t.id, 0)
			s.tr.Record(obs.WriterClient, obs.EvDispatch, t.id, int64(w))
		}
		t.home = i
		return w
	}
	return -1
}

// enqueue places t on a shard's ingress buffer and reports whether it
// found room under t's class watermark. Single-shard servers keep the
// historical one-select fast path; multi-shard servers start at the
// round-robin cursor and fall back to each sibling once.
func (s *Server) enqueue(t *task) bool {
	limit := s.classLimit[t.class]
	if len(s.shards) == 1 {
		return s.send(s.shards[0], t, limit)
	}
	n := uint64(len(s.shards))
	start := s.rr.Add(1)
	for i := uint64(0); i < n; i++ {
		if s.send(s.shards[(start+i)%n], t, limit) {
			return true
		}
	}
	return false
}

// send puts t on sh's ingress buffer if its occupancy is under limit and
// the send does not block, counting t inbound from before the send (see
// shard.inbound).
func (s *Server) send(sh *shard, t *task, limit int) bool {
	if len(sh.submit) < limit {
		sh.inbound.Add(1)
		select {
		case sh.submit <- t:
			return true
		default:
			sh.inbound.Add(-1)
		}
	}
	return false
}
