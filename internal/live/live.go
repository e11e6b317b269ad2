// Package live is a working Go implementation of the Concord runtime: a
// dispatcher loop plus worker loops (goroutines; Options.PinThreads
// locks them to OS threads, off by default) serving µs-to-ms-scale
// requests with
//
//   - cooperative preemption at the probes handler code calls (the
//     paper's compiler-enforced cooperation, §3.1 — in Go the "compiler
//     pass" is either explicit ctx.Poll() calls or source
//     instrumentation via cmd/concordc). Every slice times itself: one
//     poll in sixteen reads the clock and yields once the quantum has
//     run out, where the paper's workers read a cache line their
//     dispatcher writes: amortised, the clock costs a few nanoseconds
//     a poll, less than a dispatcher that needs a CPU of its own to
//     write the flag,
//   - JBSQ(k) bounded per-worker queues fed push-style by the
//     dispatcher (§3.2), and
//   - a work-conserving dispatcher that runs requests itself, under the
//     same self-timed slices, when all worker queues are full (§3.3);
//     such requests never migrate to workers.
//
// Go cannot hold 2µs quanta (timer and scheduler jitter are comparable),
// so realistic quanta here are ≥ 50µs; the scheduling *structure* is
// exactly the paper's. A request starts inline on its worker's own
// goroutine, and one that finishes within its first slice — nearly all
// do — never has another. Only a request that is actually preempted
// gets a context of its own, lazily and for free: the goroutine it is
// running on stays with it, parking cooperatively like a Shinjuku-style
// user-level context, and a successor goroutine adopts the worker
// identity and carries the loop on.
//
// # Layering
//
// The runtime is four layers, one file each, with the request flowing
// top to bottom:
//
//	ingest (ingest.go)      Submit: admission, backpressure, deadlines,
//	                        the one ingress buffer
//	policy (queue.go)       the central queue: an internal/policy
//	                        Queue[*task] — FCFS or SRPT via
//	                        Options.Policy — with a deadline heap, touched
//	                        only by the dispatcher
//	dispatch (dispatch.go)  the one dispatcher loop: JBSQ placement, work
//	                        conservation, parking
//	execution (exec.go)     worker loops, the slice runner both they and
//	                        the work-conserving dispatcher call (first
//	                        slice inline, identity hand-off on a yield),
//	                        the single retire path for requests that
//	                        fail, Ctx and its Poll probe
//
// live.go holds the public surface (Options, Server lifecycle, Stats)
// and task.go the request object that flows through the layers. There
// is one dispatcher, as in the paper; it owns every worker.
//
// The dispatcher is a tier a request need not cross when it has nothing
// to decide. A Do that finds nothing queued — nothing inbound, and
// nothing in the policy queue — and an idle worker places its own
// request: it takes all of that worker's JBSQ slots with one
// compare-and-swap — the dispatcher takes its slot with one too, so
// JBSQ(k) holds with both placers — and runs the first slice itself, as
// that worker, while the worker's own loop stays blocked on its empty
// local queue. TryDo does the same and, where Do would wait on the
// queue, submits like SubmitFunc instead and returns, so a caller with
// more to read — a connection reader — runs what it can place and never
// waits. Submit and SubmitFunc never place: their callers did not offer
// to run the request. (Sending the task to the worker
// instead, as a dispatcher does, costs two goroutine switches on the
// caller's processor — Go runs a woken goroutine next on the waker's —
// and measured slower per request than the dispatcher hop it saves.) And
// a dispatcher with nothing to do does not spin on a core the host may
// not have to spare (§3.3's point): after a millisecond idle with no
// queued work, it parks until a submission arrives or Stop wakes it. A
// running slice keeps no dispatcher awake: it times itself.
//
// # Lifecycle
//
// A Server moves through three states: serving, draining, stopped.
// Submit never blocks: it either accepts a request (exactly one
// Response is always delivered for an accepted request) or rejects it
// immediately with ErrServerStopped (after Stop has begun) or
// ErrQueueFull (submit buffer full — explicit backpressure instead of
// unbounded blocking). Stop drains every accepted request before
// returning; Options.DrainTimeout bounds the drain, after which queued
// and parked requests are completed with ErrServerStopped and running
// requests are aborted at their next Poll. Options.RequestTimeout gives
// every request a deadline; requests that expire while queued or parked
// are completed with ErrDeadlineExceeded.
package live

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"concord/internal/obs"
	"concord/internal/policy"
)

// Handler is the application callback interface, mirroring the paper's
// three-callback API (§4.1): setup(), setup_worker(core), and
// handle_request(req).
type Handler interface {
	// Setup initializes global application state before serving.
	Setup()
	// SetupWorker initializes per-worker state; worker -1 is the
	// dispatcher (it runs application code too, to conserve work). It
	// is called exactly once per worker or dispatcher identity, before the identity serves anything: for a dispatcher on
	// the goroutine that first holds it, for a worker from Start (under
	// PinThreads, on the worker's own pinned goroutine). The identity may
	// later move to other goroutines (see Handle), for which it is not
	// called again, so state it sets up must be keyed by the worker
	// index, not by the goroutine.
	SetupWorker(worker int)
	// Handle processes one request. Long handlers must call ctx.Poll()
	// regularly (or be instrumented with cmd/concordc) so preemption
	// works; they may bracket lock-held regions with ctx.BeginNoPreempt /
	// ctx.EndNoPreempt. Handle is called on the goroutine serving the
	// worker (or work-conserving dispatcher) the request was placed on —
	// for a Do that found a worker idle, the Do caller's own goroutine,
	// serving as that worker (see Server.Do) — and stays on that
	// goroutine for the whole request: if the request is preempted, the
	// worker moves to a fresh goroutine and this one parks in Poll until
	// the request's next slice. A handler that
	// blocks without polling therefore stalls its worker, exactly as one
	// that spins without polling does. Handle must return or panic (a
	// panic becomes the response error); it must not call
	// runtime.Goexit, which would take the worker down with it.
	Handle(ctx *Ctx, payload any) (any, error)
}

// Central-queue disciplines for Options.Policy, resolved through
// policy.NewQueue. The cascade disciplines serve strict SLOClass tiers
// (critical before standard before sheddable) with the named base
// discipline ordering each tier internally.
const (
	PolicyFCFS        = "fcfs"
	PolicySRPT        = "srpt"
	PolicyCascade     = "cascade"      // class tiers, FCFS within a tier
	PolicyCascadeSRPT = "cascade-srpt" // class tiers, SRPT within a tier
)

// policyClassed reports whether the discipline orders by SLOClass tier.
func policyClassed(name string) bool {
	return name == PolicyCascade || name == PolicyCascadeSRPT
}

// ValidPolicy reports whether name is a discipline New accepts: one of
// policy.Names().
func ValidPolicy(name string) bool { return slices.Contains(policy.Names(), name) }

// Options configures a Server.
type Options struct {
	// Workers is the number of worker loops. Default 2.
	Workers int
	// Policy selects the central-queue discipline: PolicyFCFS (default),
	// PolicySRPT, or the class-tiered PolicyCascade / PolicyCascadeSRPT
	// (strict SLOClass priority, the named discipline within each
	// tier). Under SRPT, payloads implementing Hinted are
	// ordered by estimated remaining service time (hint minus
	// accumulated service); payloads that have outrun their hint order
	// by elapsed overage after every in-budget request, and unhinted
	// payloads run last among queued peers, FIFO among themselves (the
	// runtime knows nothing about them, so it must not let them starve
	// genuinely short hinted work).
	Policy string
	// Quantum is the scheduling quantum; 0 disables preemption.
	Quantum time.Duration
	// QueueBound is k in JBSQ(k), counting the in-service request.
	// Default 2. 1 degenerates to a synchronous single queue.
	QueueBound int
	// PinThreads locks the goroutine serving each worker and dispatcher
	// to an OS thread (runtime.LockOSThread). Off unless set. The first
	// slice of every handler runs on that pinned goroutine, so a request
	// that is never preempted runs entirely on its worker's thread. When
	// a request is preempted its goroutine gives the pin up and the
	// worker's successor goroutine takes one (on whichever thread it
	// starts on), so only preempted continuations float.
	PinThreads bool
	// RequestTimeout bounds each request's total time at the server.
	// Requests that expire while queued or parked are completed with
	// ErrDeadlineExceeded; a request actively running handler code is
	// not interrupted (it is cooperative, like preemption). 0 disables.
	RequestTimeout time.Duration
	// DrainTimeout bounds Stop's graceful drain. When it expires,
	// queued and parked requests are completed with ErrServerStopped
	// and running requests are aborted at their next Poll. 0 waits for
	// every accepted request to finish.
	DrainTimeout time.Duration
	// Tracer, when non-nil, receives a lifecycle event at every request
	// state transition (submit, enqueue, dispatch, start, yield,
	// requeue, resume, completion) and enables per-request
	// latency Breakdown on every Response. It must be built with
	// obs.NewTracer for the same worker count as this server. When nil, the cost at each
	// instrumentation point is a single predictable branch.
	Tracer *obs.Tracer
	// ClassAdmission enables per-SLOClass admission control on the
	// ingress buffer: a slice of it is held in reserve for ClassCritical, ClassSheddable is shed (ErrShed) at a
	// lower watermark than standard's ErrQueueFull point, and standard
	// is rejected before the critical reserve is touched. It also arms
	// class-aware preemption (see critQuantumShrink). Off, every class
	// sees the uniform ErrQueueFull contract.
	ClassAdmission bool
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.Policy == "" {
		o.Policy = PolicyFCFS
	}
	if o.QueueBound <= 0 {
		o.QueueBound = 2
	}
	return o
}

// Response is the result of one request.
type Response struct {
	// ID identifies the request among this server's: unique, but not in
	// submission order.
	ID      uint64
	Payload any
	Err     error
	// Req echoes the submitted payload, letting a single shared
	// SubmitFunc callback correlate completions without a per-request
	// closure or channel. Always set, on rejections too.
	Req any
	// Latency is the total time at the server (sojourn).
	Latency time.Duration
	// Service is the request's summed run time over all its slices: 0
	// for a request that never ran, Breakdown.Service when traced.
	Service time.Duration
	// Done is when the response was finalized (the terminal lifecycle
	// event), as a Stamp: a reading of the runtime's one clock, which is
	// all the runtime takes. Connection layers subtract it from a later
	// NowStamp to attribute egress time (completion → bytes flushed to
	// the socket); Done − Latency is the arrival. Always set. A traced
	// request's terminal event carries Done, and its submit event the
	// arrival. Done.Time() builds the time.Time: monotonic, so Sub and
	// Since on it are too, and its wall reading drifts from the wall
	// clock by however much that has been stepped since the runtime's
	// epoch.
	Done Stamp
	// Preemptions counts how many times the request yielded.
	Preemptions int
	// OnDispatcher reports the request was executed by a
	// work-conserving dispatcher.
	OnDispatcher bool
	// Breakdown attributes Latency to lifecycle components. It is
	// non-nil only when the server runs with Options.Tracer set.
	Breakdown *Breakdown
}

// Breakdown decomposes one request's sojourn into the paper's Table-1
// components. Handoff + Queue + Service + Preempted == Latency by
// construction (Preempted absorbs the remainder: requeue gaps plus
// scheduling jitter between timestamps). Ingress sits in front of that
// identity: it precedes the submit that Latency is measured from.
type Breakdown struct {
	// Ingress is wire read → submit: the network frontend's decode and
	// pipelined submit-path time. Zero unless the payload implements
	// NetTimed and the server runs with a Tracer.
	Ingress time.Duration
	// Handoff is submit → dispatcher ingest (notification cost).
	Handoff time.Duration
	// Queue is ingest → first time on a CPU (central + JBSQ queueing).
	Queue time.Duration
	// Service is time actually executing handler code.
	Service time.Duration
	// Preempted is time parked between a yield and the next resume.
	Preempted time.Duration
}

// submitBuffer is the ingress buffer's capacity: when it is full,
// Submit rejects with ErrQueueFull rather than blocking. Tests shrink it
// through testSubmitBuffer.
const submitBuffer = 4096

// Admission watermarks, as fractions of the ingress buffer. Only
// consulted when Options.ClassAdmission is on.
const (
	// criticalReserveFrac of each ingress buffer is reserved for
	// ClassCritical: standard and sheddable are rejected once occupancy
	// crosses 1−criticalReserveFrac, while critical admits to the brim.
	criticalReserveFrac = 8 // reserve = capacity / 8 (12.5%)
	// shedFrac is ClassSheddable's watermark within the non-reserved
	// region: sheddable is shed once occupancy crosses 3/4 of the
	// standard limit, well before standard feels backpressure.
	shedNum, shedDen = 3, 4
)

// Stats are cumulative server counters, safe to read while serving.
// Completed counts delivered responses, including error responses for
// expired or aborted requests, so Submitted == Completed after Stop.
// Most of them are kept per executor, on lines only that executor's
// holder writes, and summed when Stats is called; Submitted, Completed
// and Rejected are the sums of ClassSubmitted, ClassCompleted and
// ClassRejected. The sum
// is not an atomic snapshot of all of them, so while serving two
// counters may disagree by what is in flight. A placed request that
// finishes in its first slice is counted on both sides when that slice
// ends, so while serving Submitted lags by at most one request per
// worker lent to a Do or TryDo caller.
type Stats struct {
	Submitted   uint64
	Completed   uint64
	Rejected    uint64 // never accepted: queue full, shed, or server stopped
	Shed        uint64 // subset of Rejected: sheddable dropped by admission (ErrShed)
	Expired     uint64 // completed with ErrDeadlineExceeded
	Aborted     uint64 // completed with ErrServerStopped by drain abort
	Preemptions uint64
	// DispatcherRun counts requests the work-conserving dispatcher ran
	// to completion itself.
	DispatcherRun uint64
	// ClassSubmitted / ClassCompleted / ClassRejected break the
	// top-line counters down by SLOClass (accepted, delivered, never
	// accepted). Indexed by SLOClass.
	ClassSubmitted [NumClasses]uint64
	ClassCompleted [NumClasses]uint64
	ClassRejected  [NumClasses]uint64
}

// Sentinel errors. Compare with errors.Is.
var (
	// ErrServerStopped is returned for submissions after Stop has begun
	// and for accepted requests abandoned when DrainTimeout expires.
	ErrServerStopped = errors.New("live: server stopped")
	// ErrQueueFull is returned when the submit buffer is full (for
	// ClassStandard under admission control: when occupancy has crossed
	// into the critical reserve).
	ErrQueueFull = errors.New("live: submit queue full")
	// ErrShed is returned for ClassSheddable requests dropped by
	// admission control under pressure — the load was shed by policy,
	// before the buffers were exhausted, so retrying immediately is
	// counterproductive; ErrQueueFull means the server is truly out of
	// room even for protected traffic.
	ErrShed = errors.New("live: sheddable request shed under load")
	// ErrDeadlineExceeded is returned when a request's RequestTimeout
	// expires before it completes.
	ErrDeadlineExceeded = errors.New("live: request deadline exceeded")
)

// cacheLinePad spaces state written by different cores a cache line
// apart: Server's field groups, executors, occupancy words.
const cacheLinePad = 64

// Test-only scheduling gates. When non-nil they run at historically
// racy hand-off points, widening windows that are a few instructions
// wide (and unobservable on single-CPU machines) so the lifecycle
// regression tests can exercise them deterministically, or tell a test
// that a dispatcher has parked or a Poll has given its thread over, so
// it need not sleep to find out.
var (
	testSubmitGate   func()      // between Submit's stop check and its enqueue
	testPlaceGate    func()      // between place's occupancy CAS and its stop check
	testRequeueGate  func()      // between a preemption park and its re-submit
	testParkGate     func()      // as the dispatcher parks
	testIngestGate   func()      // between the dispatcher's receive from the ingress and its push
	testConserveGate func() bool // whether the dispatcher may run a queued request itself
	testSubmitBuffer int         // when positive, the ingress capacity New uses
	testYieldHook    func(int)   // as a timesharing Poll gives its thread over, with the poll count
)

// Server is a running Concord scheduling runtime. Its fields are laid
// out by writer, on cacheLinePad-spaced lines, so that the state every
// dispatcher iteration and every Poll reads is never invalidated by the
// counters a request writes on the way in (layout_test.go pins the
// distances): read-mostly scheduler state first, then what a Submit that
// takes the ingress writes, then the cold lifecycle state. What a
// completion writes, and a request a Do caller places, is on its
// executor's lines (counters), and each worker's occupancy on a line of
// its own (occWord).
type Server struct {
	opts    Options
	handler Handler

	disp    *dispatcher
	locals  []chan *task
	occ     []occWord // per-worker occupancy incl. in-service
	workers []*executor

	// tr is Options.Tracer, kept as a concrete pointer so the disabled
	// path is one nil-check branch per event site.
	tr *obs.Tracer

	// classLimit is the per-class ingress occupancy watermark: a class
	// is rejected once len(disp.submit) reaches its limit. With
	// ClassAdmission off every entry is the buffer's capacity, so the
	// check degenerates to the channel's own.
	classLimit [NumClasses]int

	// coopTimeshare makes request code call runtime.Gosched every that
	// many polls, so that other runnable goroutines get the thread when
	// there are fewer CPUs than runtime loops (see Poll): periodically,
	// for fairness, and on demand — at any check of a worker's slice
	// while an accepted request waits to be ingested — for the
	// dispatcher. A dispatcher-run slice never yields on demand (Ctx.check).
	// Derived at New from GOMAXPROCS; 0 when every loop can have a CPU,
	// and then request code never yields its thread.
	coopTimeshare int

	// classShrink arms critQuantumShrink: set at New by configuration
	// that is about scheduling classes (see critShrink).
	classShrink bool
	serial      uint64      // tells this server's id blocks from others' (newID)
	stopped     atomic.Bool // dispatcher-visible mirror of stopping
	abort       atomic.Bool // drain deadline expired: fail pending work

	_ [cacheLinePad]byte // ---- written by every Submit ----

	nextID atomic.Uint64
	// submitMu orders the ingress against Stop: a submission that does
	// not place holds the read lock across the stopping check and the
	// enqueue, so once Stop has taken the write lock and set stopping, no
	// further task can enter the submit buffer and every later Submit
	// deterministically returns ErrServerStopped. A placed request does
	// not take it (see place).
	submitMu sync.RWMutex
	stopping bool // guarded by submitMu
	stats    struct {
		shed           atomic.Uint64
		classSubmitted [NumClasses]atomic.Uint64
		classRejected  [NumClasses]atomic.Uint64
	}

	_ [cacheLinePad]byte // ---- cold: lifecycle ----

	started atomic.Bool
	// wg counts worker identities, not goroutines: whichever goroutine
	// holds a worker's identity when its local queue closes releases it.
	wg        sync.WaitGroup
	startOnce sync.Once
	stopOnce  sync.Once
}

// servers numbers the servers New builds (Server.serial).
var servers atomic.Uint64

// New builds a server; call Start before submitting. It panics when
// Options.Policy is unknown or Options.Tracer was built for a different
// worker count.
func New(h Handler, opts Options) *Server {
	opts = opts.withDefaults()
	if opts.Tracer != nil && opts.Tracer.Workers() != opts.Workers {
		panic(fmt.Sprintf("live: tracer built for %d workers, server has %d",
			opts.Tracer.Workers(), opts.Workers))
	}
	s := &Server{
		serial:  servers.Add(1),
		opts:    opts,
		tr:      opts.Tracer,
		handler: h,
		locals:  make([]chan *task, opts.Workers),
		occ:     make([]occWord, opts.Workers),
		workers: make([]*executor, opts.Workers),
	}
	if runtime.GOMAXPROCS(0) < opts.Workers+2 {
		// Not enough CPUs to run the dispatcher, the workers, and
		// request code in parallel: timeshare cooperatively. A multiple
		// of pollCheckEvery: Poll's slow path does it.
		s.coopTimeshare = 4 * pollCheckEvery
	}
	// Per-class admission watermarks (ingress occupancy at which the
	// class is rejected). Critical admits to the brim; standard stops at
	// the critical reserve; sheddable sheds at 3/4 of standard's limit.
	b := submitBuffer
	if testSubmitBuffer > 0 {
		b = testSubmitBuffer
	}
	for c := range s.classLimit {
		s.classLimit[c] = b
	}
	if opts.ClassAdmission { // each limit at least 1, the reserve too
		std := max(b-max(b/criticalReserveFrac, 1), 1)
		s.classLimit[ClassStandard] = std
		s.classLimit[ClassSheddable] = max(std*shedNum/shedDen, 1)
	}
	s.classShrink = opts.ClassAdmission || policyClassed(opts.Policy)
	for i := range s.locals {
		s.locals[i] = make(chan *task, opts.QueueBound)
		s.workers[i] = &executor{id: i, writer: i}
	}
	q, err := newCentralQueue(opts.Policy)
	if err != nil {
		panic("live: " + err.Error())
	}
	s.disp = &dispatcher{
		q:      q,
		submit: make(chan *task, b),
		done:   make(chan struct{}),
		bell:   make(chan struct{}, 1),
		ex:     &executor{id: -1, writer: obs.WriterDispatcher, defaultSlice: dispatcherSlice},
	}
	return s
}

// Start launches the dispatcher and the workers.
func (s *Server) Start() {
	s.startOnce.Do(func() {
		s.handler.Setup()
		if !s.opts.PinThreads {
			// Here, not on the worker goroutines, so that a Do can place
			// on any worker as soon as Start returns (see place).
			for w := range s.workers {
				s.handler.SetupWorker(w)
			}
		}
		s.started.Store(true)
		for i := 0; i < s.opts.Workers; i++ {
			s.wg.Add(1)
			go s.workerLoop(i)
		}
		go s.dispatcherLoop()
	})
}

// Stop drains the server and shuts it down. Every request accepted
// before Stop gets exactly one response: with no DrainTimeout, Stop
// waits for all of them to complete; with one, requests still queued or
// parked when it expires are completed with ErrServerStopped and
// running requests are aborted at their next Poll. Submissions after
// Stop begins are rejected with ErrServerStopped. Stop is idempotent.
func (s *Server) Stop() {
	s.stopOnce.Do(func() {
		s.submitMu.Lock()
		s.stopping = true
		s.submitMu.Unlock()
		s.stopped.Store(true)
		if !s.started.Load() {
			return // never started: nothing to drain
		}
		s.wake()
		done := s.disp.done
		if d := s.opts.DrainTimeout; d > 0 {
			timer := time.NewTimer(d)
			select {
			case <-done:
				timer.Stop()
			case <-timer.C:
				s.abort.Store(true) // no wake: once stopped, the dispatcher does not park
				<-done
			}
		} else {
			<-done
		}
		for _, ch := range s.locals {
			close(ch)
		}
		s.wg.Wait()
	})
}

// Depths is a point-in-time queue-occupancy snapshot: momentary
// overload that lifetime counters cannot show.
type Depths struct {
	// Submit is the ingress buffer's occupancy (accepted, not yet
	// ingested by the dispatcher).
	Submit int
	// Central is the central queue's length.
	Central int
	// Workers is per-worker JBSQ occupancy including the in-service
	// request; a worker lent to a Do caller (see Server.Do) counts as
	// full.
	Workers []int
}

// Depths returns a live queue-depth snapshot. Safe to call while
// serving.
func (s *Server) Depths() Depths {
	d := Depths{
		Submit:  len(s.disp.submit),
		Central: s.disp.q.Len(),
		Workers: make([]int, len(s.occ)),
	}
	for w := range s.occ {
		d.Workers[w] = int(s.occ[w].Load())
	}
	return d
}

// Stats returns the server counters: the ingress's, plus every
// executor's summed, and the totals summed from the classes (see Stats).
func (s *Server) Stats() Stats {
	st := Stats{Shed: s.stats.shed.Load()}
	exs := append(slices.Clone(s.workers), s.disp.ex)
	for _, ex := range exs {
		st.Expired += ex.n.expired.Load()
		st.Aborted += ex.n.aborted.Load()
		st.Preemptions += ex.n.preemptions.Load()
		st.DispatcherRun += ex.n.dispatcherRun.Load()
	}
	for c := 0; c < NumClasses; c++ {
		st.ClassSubmitted[c] = s.stats.classSubmitted[c].Load()
		st.ClassRejected[c] = s.stats.classRejected[c].Load()
		for _, ex := range exs {
			placed := ex.n.classPlaced[c].Load()
			st.ClassSubmitted[c] += ex.n.classSubmitted[c].Load() + placed
			st.ClassCompleted[c] += ex.n.classCompleted[c].Load() + placed
		}
		st.Submitted += st.ClassSubmitted[c]
		st.Completed += st.ClassCompleted[c]
		st.Rejected += st.ClassRejected[c]
	}
	return st
}

// respChans recycles the response channels of the callers that need one
// and wait on it: a Do that place declines, which waits on the ingress
// path, and a placed Do or TryDo whose request yields, which takes its
// channel at that first yield (Ctx.check) because a later slice, or a
// retire, may finish it on another executor. A placed request that finishes within
// its first slice — the common case — is answered up its caller's stack
// and touches none. Submit's make is two allocations (the channel and
// its pointerful buffer); a pooled channel's owner has it from the
// moment it takes it to the receive and, a request being answered
// exactly once, gets it back empty, so only these callers may pool —
// Submit's callers own theirs.
var respChans = sync.Pool{New: func() any { return make(chan Response, 1) }}

// Do submits a request and waits for its response. When the server has
// nothing queued and one of its workers is idle, Do runs the
// request's first slice itself, on the calling goroutine, as that worker
// (see place): no dispatcher iteration, no goroutine switch and no
// channel, and if the request is preempted it continues on the workers
// like any other.
func (s *Server) Do(payload any) (resp Response) {
	arrival := nanotime()
	if s.runPlaced(payload, arrival, &resp) {
		return resp
	}
	ch := respChans.Get().(chan Response)
	s.ingress(s.newRequest(payload, arrival), ch, nil)
	resp = <-ch
	respChans.Put(ch)
	return resp
}
