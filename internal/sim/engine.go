package sim

import "fmt"

// Cycles is the simulation time unit: CPU clock cycles. All costs in the
// model (IPI delivery, cache misses, context switches, service times) are
// expressed in cycles so that the simulated machine's frequency is a
// single conversion constant (see internal/cost).
type Cycles int64

// Timer is a callback its owner arms, re-arms and stops: the simulated
// machine is a small fixed population of these (a worker's next event,
// its hand-offs, the dispatcher's operation, ...), not a stream of
// one-shot events. The owner keeps the timer for the engine's lifetime,
// so a handle never goes stale.
type Timer struct {
	eng *Engine
	fn  func(now Cycles)

	at  Cycles
	seq uint64 // tie-break: simultaneous timers fire in arming order
	// pos is the timer's index in the engine's heap (0 for an armed slot
	// timer, which is not in the heap), or -1 when it is not armed.
	pos  int
	slot bool
}

// before is the firing order: time, then arming sequence.
func (t *Timer) before(u *Timer) bool {
	return t.at < u.at || (t.at == u.at && t.seq < u.seq)
}

// Engine is a single-threaded discrete-event simulator. Timers fire in
// nondecreasing time order; simultaneous timers fire in arming order.
type Engine struct {
	now     Cycles
	heap    []*Timer // binary min-heap on (at, seq); each timer knows its index
	slot    *Timer   // the out-of-heap timer, if one was made
	seq     uint64
	stopped bool

	// Executed counts timers fired so far, useful as a runaway guard and
	// for reporting simulator throughput.
	Executed uint64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() Cycles { return e.now }

// NewTimer returns an unarmed timer that runs fn each time it fires. fn
// may arm any timer, its own included.
func (e *Engine) NewTimer(fn func(now Cycles)) *Timer {
	return &Timer{eng: e, fn: fn, pos: -1}
}

// NewSlotTimer returns the engine's one timer that is kept beside the
// heap instead of in it: arming and firing it cost a comparison against
// the heap's top, not a sift. It is for the busiest timer of a model (the
// simulated dispatcher's serialized operation is nearly half of all
// events) and fires in exactly the order a heap timer would.
func (e *Engine) NewSlotTimer(fn func(now Cycles)) *Timer {
	if e.slot != nil {
		panic("sim: engine already has a slot timer")
	}
	e.slot = e.NewTimer(fn)
	e.slot.slot = true
	return e.slot
}

// At runs fn once at absolute time at, on a timer of its own.
func (e *Engine) At(at Cycles, fn func(now Cycles)) *Timer {
	t := e.NewTimer(fn)
	t.Set(at)
	return t
}

// After runs fn once delay cycles from now.
func (e *Engine) After(delay Cycles, fn func(now Cycles)) *Timer {
	return e.At(e.now+delay, fn)
}

// Set arms the timer to fire at absolute time at; an armed timer is moved
// there, and takes its place among simultaneous timers anew. Arming in
// the past panics: it always indicates a model bug.
func (t *Timer) Set(at Cycles) { t.SetSeq(at, t.eng.Reserve()) }

// Reserve takes the next arming sequence number without arming anything,
// for a SetSeq later: a timer armed so fires among simultaneous timers
// where it would have had it been armed at the moment of the Reserve.
func (e *Engine) Reserve() uint64 {
	e.seq++
	return e.seq - 1
}

// SetSeq is Set with a sequence number taken earlier from Reserve. Each
// reserved number arms at most once.
func (t *Timer) SetSeq(at Cycles, seq uint64) {
	e := t.eng
	if at < e.now {
		panic(fmt.Sprintf("sim: arming timer at %d before now %d", at, e.now))
	}
	t.at, t.seq = at, seq
	switch {
	case t.slot:
		t.pos = 0
	case t.pos < 0:
		e.heap = append(e.heap, t)
		e.up(len(e.heap)-1, t)
	default:
		e.fix(t.pos, t)
	}
}

// Stop disarms the timer. Stopping a timer that is not armed — never
// set, already fired, already stopped, or nil — is a no-op.
func (t *Timer) Stop() {
	if t == nil || t.pos < 0 {
		return
	}
	if !t.slot {
		e := t.eng
		n := len(e.heap) - 1
		last := e.heap[n]
		e.heap[n] = nil
		e.heap = e.heap[:n]
		if last != t {
			e.fix(t.pos, last)
		}
	}
	t.pos = -1
}

// fix puts x at index i, whose occupant is leaving or has a new key.
func (e *Engine) fix(i int, x *Timer) {
	if i > 0 && x.before(e.heap[(i-1)/2]) {
		e.up(i, x)
	} else {
		e.down(i, x)
	}
}

// up and down place x at the hole i, moving the hole toward the root or
// the leaves until x fits: one write per level instead of a swap's two.
func (e *Engine) up(i int, x *Timer) {
	h := e.heap
	for i > 0 {
		p := (i - 1) / 2
		if !x.before(h[p]) {
			break
		}
		h[i] = h[p]
		h[i].pos = i
		i = p
	}
	h[i] = x
	x.pos = i
}

func (e *Engine) down(i int, x *Timer) {
	h := e.heap
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(x) {
			break
		}
		h[i] = h[c]
		h[i].pos = i
		i = c
	}
	h[i] = x
	x.pos = i
}

// Stop makes Run return after the current timer's callback completes.
func (e *Engine) Stop() { e.stopped = true }

// Step fires the next timer, if any, and reports whether one fired.
//
// A heap timer fires in place: it stays in the heap while its callback
// runs, so a callback that re-arms it pays one sift instead of a pop and
// a push. Afterwards it leaves the heap, from wherever it then sits, only
// if the callback neither stopped it nor re-armed it; a re-arm always
// changes its seq, because no sequence number arms twice. The slot timer
// is disarmed before its callback: re-arming it costs two stores anyway.
func (e *Engine) Step() bool {
	t := e.slot
	if t == nil || t.pos < 0 || (len(e.heap) > 0 && e.heap[0].before(t)) {
		if len(e.heap) == 0 {
			return false
		}
		t = e.heap[0]
	} else {
		t.pos = -1
	}
	seq := t.seq
	e.now = t.at
	e.Executed++
	t.fn(e.now)
	if t.pos >= 0 && t.seq == seq {
		t.Stop()
	}
	return true
}

// Run fires timers until none is armed or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}
