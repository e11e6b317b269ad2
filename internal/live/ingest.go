// Ingest layer: admission control. Submit builds the task, applies the
// deadline, reads the payload's service hint and SLOClass (always: what
// consumes them — the discipline, a class quantum — can change while
// the request is queued), checks the stop gate, and places the task on
// the ingress buffer — or, for a Do or TryDo that finds nothing queued
// and an idle worker, hands the request to the caller to run as that
// worker, in the worker's own task (place, runPlaced).
//
// Admission is class-aware when Options.ClassAdmission is on: each
// class has an ingress-occupancy watermark (Server.classLimit) and is
// rejected once the buffer has crossed it. Critical admits up
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
	_ "unsafe" // go:linkname

	"concord/internal/obs"
)

// Submit enqueues a request and returns a channel that will receive
// exactly one response. The channel has capacity 1; the caller need not
// read it immediately. Submit never blocks: after Stop has begun it
// responds ErrServerStopped, and when the submit buffer is full (or
// past the payload's class watermark) it responds ErrQueueFull
// — ErrShed for sheddable payloads dropped by admission control.
func (s *Server) Submit(payload any) <-chan Response {
	ch := make(chan Response, 1)
	s.ingress(s.newRequest(payload, nanotime()), ch, nil)
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
	s.ingress(s.newRequest(payload, nanotime()), nil, done)
}

// TryDo is Do for a request that can be placed and SubmitFunc for one
// that cannot, and it never waits on a queue. When the server has
// nothing queued and one of its workers is idle, TryDo runs the
// request on the calling goroutine as that worker, as Do does, and
// returns its Response and true; done is not called. Otherwise it submits
// the request exactly as SubmitFunc(payload, done) would and returns
// false at once. A connection reader uses it to serve what it can
// without a hand-off while it keeps reading: a reader that waited on a
// queue would stop reading, and a client pipelining behind the request
// would be served as if in lockstep.
func (s *Server) TryDo(payload any, done func(Response)) (resp Response, placed bool) {
	arrival := nanotime()
	if placed = s.runPlaced(payload, arrival, &resp); !placed {
		s.ingress(s.newRequest(payload, arrival), nil, done)
	}
	return resp, placed
}

// newRequest builds a pooled task for payload, which arrived at arrival
// (a nanotime): the task of a request that takes the ingress.
func (s *Server) newRequest(payload any, arrival int64) *task {
	t := newTask()
	s.fill(t, payload, arrival)
	return t
}

// fill writes the request for payload, which arrived at arrival, into t,
// whose request state is zero: the part of ingest every entry point
// shares, whether the request is placed (in its worker's spare) or takes
// the ingress (in a pooled task).
func (s *Server) fill(t *task, payload any, arrival int64) {
	s.newID(t)
	t.payload = payload
	t.arrival = arrival
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
		// sorts by stamp, so late recording is invisible downstream.
		if nt, ok := payload.(NetTimed); ok {
			if read, parsed := nt.NetTimes(); !read.IsZero() {
				t.readTS = int64(read)
				s.tr.Record(obs.WriterNet, obs.EvFrameRead, t.id, 0, int64(read))
				if !parsed.IsZero() {
					s.tr.Record(obs.WriterNet, obs.EvParsed, t.id, 0, int64(parsed))
				}
			}
		}
	}
}

// runPlaced gives the request for payload, which arrived at arrival, its
// first slice on its caller, a Do or TryDo, when place lends it an idle
// worker ex, and reports whether it did. The request runs in ex's spare
// task, refilled from taskPool when the last request placed on ex took
// it (adopt), and as ex in every respect — quantum, trace, finish —
// while ex's own loop stays blocked on its empty local queue, and nobody
// else places on ex: place took every one of its JBSQ slots. The slice
// starts at the arrival: the request was not queued, so it cannot have
// expired, a drain abort ends it at its first check, and, traced, it has
// no hand-off or queue wait — its submit, enqueue and dispatch events
// are recorded here, on the client's ring, all stamped at arrival like
// its start, so Breakdown and obs.Analyze both read 0 for them. A request that
// finishes within the slice is answered up the caller's stack, in *resp:
// no channel, no pool, two clock reads and three locked operations in
// all — place's compare-and-swap, finish's one count on ex's line, and
// the release of the slots. If it yields, adopt counts it, requeues it
// and gives the slots back; otherwise they are given back here.
func (s *Server) runPlaced(payload any, arrival int64, resp *Response) bool {
	w := s.place(s.home())
	if w < 0 {
		return false
	}
	ex := s.workers[w] // the caller holds the worker's identity now
	t := ex.spare
	if t == nil {
		t = newTask()
		ex.spare = t
	}
	s.fill(t, payload, arrival)
	if s.tr != nil {
		t.enqueueTS = arrival
		s.tr.Record(obs.WriterClient, obs.EvSubmit, t.id, 0, arrival)
		s.tr.Record(obs.WriterClient, obs.EvEnqueueCentral, t.id, 0, arrival)
		s.tr.Record(obs.WriterClient, obs.EvDispatch, t.id, int64(w), arrival)
	}
	ex.lent = true
	if _, detached := s.runSlice(ex, t, t.arrival, resp); !detached {
		ex.lent = false
		s.occ[w].Store(0)
	}
	return true
}

// ingress gives t its owner, the channel ch or the callback done, and
// puts it on the ingress buffer, or rejects it: Stop has begun, or the
// buffer has no room under t's class watermark.
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
			s.tr.Record(obs.WriterClient, obs.EvSubmit, id, 0, arrival)
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
	done := nanotime()
	if s.tr != nil {
		s.tr.Record(obs.WriterClient, obs.EvReject, t.id, status, done)
	}
	resp := Response{ID: t.id, Err: err, Req: t.payload, Done: Stamp(done)}
	t.deliver(&resp)
	t.release()
}

// place dispatches a Do or TryDo request to its caller: when the server
// has no accepted request that is not yet in service — none inbound (in
// the ingress buffer, or received by the dispatcher and not yet pushed)
// and none in the policy queue, so no queued request can be overtaken,
// whatever the discipline — and one of its workers is idle, it takes
// every JBSQ slot of that worker with one compare-and-swap and returns
// the worker, whose first slice of the request the caller then runs
// itself (runPlaced); otherwise it returns -1 and the request takes the
// ingress. Only those two place: their callers run the request rather
// than hand it off, where Submit and SubmitFunc promise never to run it
// on the caller. The scan starts at worker from (home) and wraps.
//
// A placed request does not take submitMu: place checks stopped after
// its compare-and-swap instead, and gives the slots back and declines if
// Stop has begun, so the request takes the ingress path, which rejects
// it. The atomics are sequentially consistent, and a dispatcher reads
// the occupancies (drained) only after it has seen stopped set: either
// the placer sees the stop, or the dispatcher sees the occupancy and
// does not call the server drained until the request is answered.
func (s *Server) place(from int) int {
	// Not before Start has set the workers up, and not under PinThreads:
	// a lent slice would not run on the worker's pinned thread. inbound is
	// read before the queue: a task leaves it only once pushed.
	d := s.disp
	if s.opts.PinThreads || !s.started.Load() || d.inbound.Load() > 0 || d.q.Len() > 0 {
		return -1
	}
	// With a load first: a compare-and-swap that fails still takes the
	// line from the worker's holder.
	for k, w := 0, from; k < len(s.occ); k, w = k+1, w+1 {
		if w >= len(s.occ) {
			w = 0
		}
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
		return w
	}
	return -1
}

// home is the worker place starts its scan at: the calling goroutine's
// processor index P, modulo the workers. Two callers on two processors
// start at two workers and keep to their own occupancy and executor
// lines, where a scan from worker 0 would have them trade workers on
// every request. It is a hint only: a goroutine that migrates between
// reading it and placing costs locality, never correctness — the
// compare-and-swap decides who holds a worker.
func (s *Server) home() int {
	p := procPin()
	procUnpin()
	if p >= len(s.occ) {
		p %= len(s.occ)
	}
	return p
}

// procPin and procUnpin are the runtime's: procPin returns the index of
// the processor (P) the calling goroutine runs on and keeps it there
// until procUnpin. sync.Pool keys its per-P shards on the same index,
// and the runtime keeps both linkable for packages outside it
// (go.dev/issue/67401).
//
//go:linkname procPin runtime.procPin
func procPin() int

//go:linkname procUnpin runtime.procUnpin
func procUnpin()

// enqueue puts t on the ingress buffer if its occupancy is under t's
// class watermark and the send does not block, counting t inbound from
// before the send (see dispatcher.inbound).
func (s *Server) enqueue(t *task) bool {
	d := s.disp
	if len(d.submit) < s.classLimit[t.class] {
		d.inbound.Add(1)
		select {
		case d.submit <- t:
			return true
		default:
			d.inbound.Add(-1)
		}
	}
	return false
}
