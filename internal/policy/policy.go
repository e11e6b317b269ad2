// Package policy implements the central-queue disciplines and worker-
// assignment policies of the simulated server.
//
// The paper's systems combine two orthogonal choices:
//
//   - the central queue's ordering: FCFS (all evaluated systems) with
//     preempted requests re-joining the tail, which under quantum
//     preemption approximates Processor Sharing; or SRPT, the extension
//     the paper mentions Concord's dispatcher-centric design enables.
//   - the worker-assignment mode: a synchronous single queue (workers
//     pull one request at a time) or JBSQ(k) (the dispatcher pushes into
//     bounded per-worker queues, §3.2).
package policy

import (
	"fmt"
	"math"

	"concord/internal/sim"
)

// Item is a queued unit of work. The server stores *Request values; the
// queue only needs the remaining work for SRPT ordering.
type Item interface {
	// RemainingCycles is the work left for this request.
	RemainingCycles() sim.Cycles
}

// Queue is a central run queue.
type Queue[T Item] interface {
	// Push adds a request to the queue. started reports whether the
	// request has run before (a preempted request being re-queued);
	// FCFS appends either way, but disciplines may use it.
	Push(item T, started bool)
	// Pop removes and returns the next request per the discipline.
	// ok is false if the queue is empty.
	Pop() (item T, ok bool)
	// PopNonStarted removes and returns the first request that has never
	// run, for the work-conserving dispatcher, which may only pick up
	// non-started requests (§3.3). ok is false if there is none.
	PopNonStarted() (item T, ok bool)
	// Len returns the number of queued requests.
	Len() int
}

// Hinted-SRPT key bands. A request that carries a service hint (an
// estimate of its size) keys the SRPT queue in one of three disjoint
// ranges, so the queue can never invert priorities across kinds:
//
//   - in-budget hinted requests key by remaining estimate, [0, hint];
//   - requests that have outrun their hint key by elapsed overage in a
//     band above any credible remaining hint — the estimate is spent,
//     and under the inspection-paradox logic of scheduling with
//     estimated sizes, the longer a request has overrun the longer it
//     is likely to keep running, so larger overage sorts later;
//   - unhinted requests take the max-key sentinel: nothing is known
//     about them, so they run last among queued peers, FIFO among
//     themselves (the SRPT heap's sequence tie-break).
//
// Clamping hint−run at zero instead would sort unhinted and over-budget
// requests to the head of the heap: a long request that exhausted its
// estimate would stay top priority and starve genuinely short ones, the
// classic underestimated-size pathology.
const (
	// OverBudgetKeyBase opens the over-budget band: above any credible
	// remaining hint (2^60 ns ≈ 36 years), below the unhinted sentinel.
	OverBudgetKeyBase = sim.Cycles(1) << 60
	// UnhintedKey is the max-key sentinel for hintless requests.
	UnhintedKey = sim.Cycles(math.MaxInt64)
)

// HintedKey is the SRPT key of a request whose hint is hint (0 or less:
// none) after run of it has executed, in the bands above. The live
// runtime keys every SRPT task by it, in nanoseconds, and the simulator
// keys by it under hinted SRPT, in cycles.
func HintedKey(hint, run sim.Cycles) sim.Cycles {
	switch {
	case hint <= 0:
		return UnhintedKey
	case run <= hint:
		return hint - run
	}
	// The overage saturates below the sentinel.
	return OverBudgetKeyBase + min(run-hint, UnhintedKey-OverBudgetKeyBase-1)
}

// NewQueue resolves a central-queue discipline by name: "fcfs" (also
// the default for an empty name), "srpt", or the tiered-priority
// cascades "cascade" (FCFS within each tier) and "cascade-srpt" (SRPT
// within each tier). It is the single registry both the simulator
// configuration and the live runtime's Options.Policy knob resolve
// through.
func NewQueue[T Item](name string) (Queue[T], error) {
	switch name {
	case "", "fcfs":
		return NewFCFS[T](), nil
	case "srpt":
		return NewSRPT[T](), nil
	case "cascade":
		return NewCascade[T](func() Queue[T] { return NewFCFS[T]() }), nil
	case "cascade-srpt":
		return NewCascade[T](func() Queue[T] { return NewSRPT[T]() }), nil
	}
	return nil, fmt.Errorf("policy: unknown queue discipline %q (have %v)", name, Names())
}

// Names lists the discipline names NewQueue accepts.
func Names() []string { return []string{"fcfs", "srpt", "cascade", "cascade-srpt"} }

// fcfsEntry pairs an item with its started flag.
type fcfsEntry[T Item] struct {
	item    T
	started bool
}

// FCFS is a first-come-first-served queue. With quantum preemption and
// re-queueing at the tail it realizes round-robin (≈ Processor Sharing).
type FCFS[T Item] struct {
	// ring buffer
	buf        []fcfsEntry[T]
	head, size int
}

// NewFCFS returns an empty FCFS queue.
func NewFCFS[T Item]() *FCFS[T] {
	return &FCFS[T]{buf: make([]fcfsEntry[T], 16)}
}

func (q *FCFS[T]) grow() {
	nb := make([]fcfsEntry[T], len(q.buf)*2)
	for i := 0; i < q.size; i++ {
		nb[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = nb
	q.head = 0
}

// Push appends to the tail.
func (q *FCFS[T]) Push(item T, started bool) {
	if q.size == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.size)%len(q.buf)] = fcfsEntry[T]{item, started}
	q.size++
}

// Pop removes the head of the queue.
func (q *FCFS[T]) Pop() (item T, ok bool) {
	if q.size == 0 {
		return item, false
	}
	e := q.buf[q.head]
	q.buf[q.head] = fcfsEntry[T]{} // release reference
	q.head = (q.head + 1) % len(q.buf)
	q.size--
	return e.item, true
}

// PopNonStarted removes the first never-started request, preserving the
// relative order of the rest. The gap closes toward the head (the match
// is usually near it, so this is O(match position), not O(queue)).
func (q *FCFS[T]) PopNonStarted() (item T, ok bool) {
	for i := 0; i < q.size; i++ {
		idx := (q.head + i) % len(q.buf)
		if !q.buf[idx].started {
			e := q.buf[idx]
			// Shift the i entries before the match one slot toward the
			// tail, then advance head past the vacated slot.
			for j := i; j > 0; j-- {
				to := (q.head + j) % len(q.buf)
				from := (q.head + j - 1) % len(q.buf)
				q.buf[to] = q.buf[from]
			}
			q.buf[q.head] = fcfsEntry[T]{}
			q.head = (q.head + 1) % len(q.buf)
			q.size--
			return e.item, true
		}
	}
	return item, false
}

// Len returns the queue length.
func (q *FCFS[T]) Len() int { return q.size }

// SRPT is a Shortest-Remaining-Processing-Time queue, the non-blind
// extension §3.1 says Concord's dispatcher-centric design enables. Ties
// break FIFO.
type SRPT[T Item] struct {
	entries []srptEntry[T]
	seq     uint64
}

type srptEntry[T Item] struct {
	item    T
	started bool
	key     sim.Cycles
	seq     uint64
}

// NewSRPT returns an empty SRPT queue.
func NewSRPT[T Item]() *SRPT[T] {
	return &SRPT[T]{}
}

func (q *SRPT[T]) less(i, j int) bool {
	if q.entries[i].key != q.entries[j].key {
		return q.entries[i].key < q.entries[j].key
	}
	return q.entries[i].seq < q.entries[j].seq
}

func (q *SRPT[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.entries[i], q.entries[parent] = q.entries[parent], q.entries[i]
		i = parent
	}
}

func (q *SRPT[T]) down(i int) {
	n := len(q.entries)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(l, smallest) {
			smallest = l
		}
		if r < n && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		q.entries[i], q.entries[smallest] = q.entries[smallest], q.entries[i]
		i = smallest
	}
}

// Push inserts keyed by remaining work.
func (q *SRPT[T]) Push(item T, started bool) {
	q.entries = append(q.entries, srptEntry[T]{item, started, item.RemainingCycles(), q.seq})
	q.seq++
	q.up(len(q.entries) - 1)
}

// Pop removes the request with the least remaining work.
func (q *SRPT[T]) Pop() (item T, ok bool) {
	if len(q.entries) == 0 {
		return item, false
	}
	e := q.entries[0]
	last := len(q.entries) - 1
	q.entries[0] = q.entries[last]
	q.entries = q.entries[:last]
	if len(q.entries) > 0 {
		q.down(0)
	}
	return e.item, true
}

// PopNonStarted removes the shortest never-started request.
func (q *SRPT[T]) PopNonStarted() (item T, ok bool) {
	best := -1
	for i, e := range q.entries {
		if !e.started && (best == -1 || q.less(i, best)) {
			best = i
		}
	}
	if best == -1 {
		return item, false
	}
	e := q.entries[best]
	last := len(q.entries) - 1
	q.entries[best] = q.entries[last]
	q.entries = q.entries[:last]
	if best < len(q.entries) {
		q.down(best)
		q.up(best)
	}
	return e.item, true
}

// Len returns the queue length.
func (q *SRPT[T]) Len() int { return len(q.entries) }

// ShortestQueue returns the index of the shortest per-worker queue among
// those with fewer than bound entries, preferring lower indices on ties.
// It returns -1 if every queue is full. This is the JBSQ(k) push rule.
func ShortestQueue(lengths []int, bound int) int {
	best, bestLen := -1, bound
	for i, l := range lengths {
		if l < bestLen {
			best, bestLen = i, l
		}
	}
	return best
}

// JBSQDepth returns the paper's queue-bound sizing rule (§3.2):
// k = ceil(c_next / S) + 1, with a floor of 2 — "we found k = 2 to be
// sufficient for service times above 1µs".
func JBSQDepth(cNext, serviceCycles sim.Cycles) int {
	if serviceCycles <= 0 {
		return 2
	}
	k := int((cNext+serviceCycles-1)/serviceCycles) + 1
	if k < 2 {
		k = 2
	}
	return k
}
