// The request object that flows through the layers: ingest creates a
// task, the policy queue orders it, dispatch places it, execution runs
// it. Also the Hinted contract that feeds SRPT its service estimates.
package live

import (
	"sync"
	"time"

	"concord/internal/policy"
	"concord/internal/sim"
)

// Hinted is implemented by payloads that can estimate their own service
// time. Submit always reads the estimate; under Options.Policy
// PolicySRPT it orders the central queue by remaining work (hint minus
// accumulated service), FCFS ignores it. Hints are advisory: a wrong hint reorders the queue but
// never affects correctness. A request that outruns its hint orders by
// elapsed overage behind every in-budget request, and unhinted payloads
// run last among queued peers (FIFO among themselves) — see
// task.RemainingCycles for the key contract.
type Hinted interface {
	ServiceHint() time.Duration
}

// SLOClass is a request's service class: the first-class multi-tenancy
// abstraction carried end-to-end from the wire frame through admission,
// queueing, dispatch, and per-class observability. Three classes cover
// the tenancy contract:
//
//   - ClassStandard (the zero value) is every request that doesn't
//     declare a class — v1 wire frames, classless payloads, existing
//     callers. Baseline admission and the middle priority tier.
//   - ClassCritical is protected traffic: under Options.ClassAdmission
//     a slice of every ingress buffer is reserved for it, it occupies
//     the top priority tier under the cascade discipline, and once
//     class-aware preemption is armed (see critQuantumShrink) the
//     dispatcher tightens other classes' quanta while critical work is
//     queued.
//   - ClassSheddable is best-effort traffic: it is dropped first under
//     pressure (ErrShed, before standard feels any backpressure) and
//     occupies the bottom priority tier.
type SLOClass uint8

const (
	ClassStandard  SLOClass = 0
	ClassCritical  SLOClass = 1
	ClassSheddable SLOClass = 2
	// NumClasses bounds the class-indexed tables (quanta, admission
	// limits, stats, tails); SLOClass values at or above it are treated
	// as ClassStandard.
	NumClasses = 3
)

// Tier maps the class onto its strict-priority cascade tier: lower is
// served first (policy.Cascade's contract). The numbering is distinct
// from the class constants on purpose — the zero class (standard) is
// the *middle* tier, matching policy.DefaultTier for untiered items.
func (c SLOClass) Tier() int {
	switch c {
	case ClassCritical:
		return 0
	case ClassSheddable:
		return 2
	default:
		return 1
	}
}

// String returns the class's canonical lowercase name, used as the wire
// text token, the STATS/metrics label, and the -class flag value.
func (c SLOClass) String() string {
	switch c {
	case ClassCritical:
		return "critical"
	case ClassSheddable:
		return "sheddable"
	default:
		return "standard"
	}
}

// DefaultObjective is the class's default latency objective, used when
// a per-class SLO target isn't configured explicitly: critical answers
// interactively, standard is the general-purpose budget, sheddable only
// promises eventual service.
func (c SLOClass) DefaultObjective() time.Duration {
	switch c {
	case ClassCritical:
		return 1 * time.Millisecond
	case ClassSheddable:
		return 100 * time.Millisecond
	default:
		return 10 * time.Millisecond
	}
}

// ParseSLOClass resolves a class name (as produced by String); ok is
// false for unknown names.
func ParseSLOClass(name string) (SLOClass, bool) {
	switch name {
	case "standard", "":
		return ClassStandard, true
	case "critical":
		return ClassCritical, true
	case "sheddable":
		return ClassSheddable, true
	}
	return ClassStandard, false
}

// SLOClassed is implemented by payloads that declare a service class.
// The class drives admission (reserved critical capacity, sheddable
// shedding), the cascade queue's priority tier, per-class preemption
// quanta, and per-class tail accounting. Payloads that don't implement
// it are ClassStandard.
type SLOClassed interface {
	SLOClass() SLOClass
}

// NetTimed is implemented by payloads that crossed a network frontend
// before Submit. When the server runs with a Tracer, Submit records the
// wire stamps retroactively as EvFrameRead/EvParsed events (writer
// obs.WriterNet) and the response Breakdown gains the Ingress
// component. The stamps are readings of the runtime's clock (NowStamp);
// zero stamps mean the frontend did not stamp the request (tracing off
// at the connection layer). Untraced servers have nowhere to record the
// stamps and do not ask for them.
type NetTimed interface {
	NetTimes() (read, parsed Stamp)
}

type parkEvent struct {
	done bool
	resp Response
}

// task is one in-flight request and, once it has yielded, the handle on
// its suspended continuation (the goroutine parked on resume). A task
// outlives its request: a placed request runs in its worker's spare
// (executor.spare), every other in a task from taskPool, and either way
// only the request's state is zeroed when it is done. What outlives a
// request — the Ctx its next first slice overwrites, the handshake
// channels, gen and the id block — sits outside that state.
type task struct {
	taskState

	// ctx is the request's Ctx, embedded so the first slice doesn't
	// allocate one per request. Only the goroutine running the handler
	// touches it, from the start of the first slice, which writes it
	// whole (runSlice), to the handler's return. It is not part of the
	// request's state: release leaves it, but for its server.
	ctx Ctx

	resume chan *executor
	parked chan parkEvent

	// gen counts the task's departures from a central queue, across
	// every request it carries: a deadline-heap entry records it and is
	// stale once the two differ (see centralQueue.SweepExpired), so a
	// recycled task is never expired by an entry from an earlier use.
	// Only the dispatcher touches it; recycling leaves it alone.
	gen uint64

	// The task hands out request ids (idNext, idEnd], a block it claimed
	// from the server whose serial is idSrv (newID).
	idSrv, idNext, idEnd uint64

	// A task fills whole cache lines (TestTaskWholeLines): 320 bytes is
	// a size class whose objects start on line boundaries, so two tasks,
	// written by two callers, never share a line.
	_ [64]byte
}

// idBlockLen is how many ids a task claims from its server at a time.
const idBlockLen = 64

// newID gives t its request id from its block, claiming a new block
// when it has none of this server's left. Ids are unique per server but
// not in submission order: a counter every submitter wrote per request
// would be a line bouncing between their cores, and a block writes it
// once in idBlockLen requests.
func (s *Server) newID(t *task) {
	if t.idSrv != s.serial || t.idNext == t.idEnd {
		t.idSrv, t.idEnd = s.serial, s.nextID.Add(idBlockLen)
		t.idNext = t.idEnd - idBlockLen
	}
	t.idNext++
	t.id = t.idNext
}

// taskState is one request's state: everything reset zeroes.
type taskState struct {
	id       uint64
	payload  any
	arrival  int64 // nanotime at Submit
	deadline int64 // nanotime; 0 = none
	// At most one of result / done carries the response: result a
	// channel of capacity 1, done a callback (see deliver).
	result chan Response
	done   func(Response)

	// abortErr, when set before a resume, makes the request unwind with
	// this error at the resume point instead of continuing. Written
	// before the resume send, read after the resume receive.
	abortErr error

	started      bool
	onDispatcher bool
	preempts     int

	// hintNS is the payload's service-time estimate (0 when it has
	// none); with runNS it yields the SRPT key.
	hintNS int64
	// class is the payload's SLOClass (admission, cascade tier,
	// per-class quanta, per-class stats and tails); ClassStandard when
	// the payload is not SLOClassed.
	class uint8

	// dead marks a task the deadline sweep expired while it sat in a
	// policy queue, which still holds it and drops it when it comes up
	// (see queue.go). Written by the dispatcher only.
	dead bool

	// runNS is the accumulated running time: every slice charges the
	// interval between its two clock reads (SRPT's remaining-work key,
	// Response.Service and Breakdown.Service). The nanotime stamps
	// below are written on traced servers only, 0 until then. All writes
	// happen on the goroutine that owns the task at that moment; the
	// channel hand-offs order them.
	runNS      int64
	enqueueTS  int64 // first dispatcher ingest
	firstRunTS int64 // first CPU hand-off
	readTS     int64 // wire read (NetTimed payloads)
}

// taskPool recycles tasks and their resume/parked handshake channels
// for the requests that do not run in a worker's spare: those that take
// the ingress, and a placed request that yields, which takes its
// worker's spare with it (adopt) and leaves a refill from here to the
// next placement. A task goes back at finish unless a policy queue still
// holds it: one the deadline sweep expired while queued stays there as a
// tombstone until it comes up, and is left to the GC. A deadline-heap
// entry may outlive the request too, but gen tells it the task has moved
// on.
var taskPool = sync.Pool{New: func() any {
	return &task{
		resume: make(chan *executor),
		parked: make(chan parkEvent),
	}
}}

// newTask returns a zeroed task with live handshake channels.
func newTask() *task { return taskPool.Get().(*task) }

// reset zeroes the request's state, leaving the task ready for its next
// request: finish's whole recycling of a worker's spare.
func (t *task) reset() { t.taskState = taskState{} }

// release puts a task that is not a worker's spare back in taskPool,
// reset, when no policy queue still holds it. The handshake channels are
// empty by construction: both are unbuffered, and the final parked send
// has completed before finish runs. The Ctx is left for runSlice to
// overwrite, all but its server: a pooled task must not keep a stopped
// server reachable. (A spare keeps it: the spare is that server's.)
func (t *task) release() {
	if !t.dead {
		t.reset()
		t.ctx.srv = nil
		taskPool.Put(t)
	}
}

// Tier places the task in the cascade queue's strict-priority order
// (policy.Tiered).
func (t *task) Tier() int { return SLOClass(t.class).Tier() }

// deliver hands the task's single response to its owner: the callback
// for SubmitFunc tasks and a TryDo that did not place, the capacity-1
// channel for Submit, a Do that did not place, and a placed request that
// yielded. A placed request that did not yield has neither: its caller
// reads the response where finish built it.
func (t *task) deliver(resp *Response) {
	if t.done != nil {
		t.done(*resp)
	} else if t.result != nil {
		t.result <- *resp
	}
}

func (t *task) expired(now int64) bool {
	return t.deadline != 0 && now > t.deadline
}

// RemainingCycles keys the central queue under SRPT (cycles are
// nanoseconds here; only the ordering matters): policy.HintedKey of the
// payload's hint and the time run so far. The policy queue calls it
// during Push, when the pushing goroutine owns the task.
func (t *task) RemainingCycles() sim.Cycles {
	return policy.HintedKey(sim.Cycles(t.hintNS), sim.Cycles(t.runNS))
}

// taskAbort is the panic payload used to unwind an aborted request's
// handler; Server.handle's recover converts it to a Response error.
type taskAbort struct{ err error }

// breakdown attributes the sojourn to components from the task's
// observability timestamps. Preempted absorbs the remainder, so the
// four components always sum exactly to total.
func (t *task) breakdown(end int64, total time.Duration) *Breakdown {
	b := &Breakdown{}
	if t.readTS != 0 && t.arrival > t.readTS {
		b.Ingress = time.Duration(t.arrival - t.readTS)
	}
	if t.enqueueTS != 0 {
		b.Handoff = time.Duration(t.enqueueTS - t.arrival)
		if t.firstRunTS != 0 {
			b.Queue = time.Duration(t.firstRunTS - t.enqueueTS)
		} else {
			// Never ran: died queued (expired or aborted).
			b.Queue = time.Duration(end - t.enqueueTS)
		}
	}
	b.Service = time.Duration(t.runNS)
	if rest := total - b.Handoff - b.Queue - b.Service; rest > 0 {
		b.Preempted = rest
	}
	return b
}
