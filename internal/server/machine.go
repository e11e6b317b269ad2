package server

import (
	"math"

	"concord/internal/policy"
	"concord/internal/sim"
	"concord/internal/stats"
)

// opKind enumerates the dispatcher's serialized operations.
type opKind int

const (
	opArrival  opKind = iota // accept + enqueue an incoming request
	opPush                   // dispatch one request to a worker queue
	opSignal                 // send a preemption signal to a worker
	opRequeue                // re-place a preempted request; frees the slot
	opSlotFree               // notice a completed request left a worker
)

// op is one unit of dispatcher work.
type op struct {
	kind   opKind
	req    *Request
	epoch  uint32 // req's epoch at enqueue time; guards against pooled reuse
	worker int
	cost   sim.Cycles
}

// workerEvent names what a worker's timer fires next.
type workerEvent uint8

const (
	evComplete workerEvent = iota // the current segment runs to its end
	evExpire                      // the dispatcher notices the quantum expired
	evYield                       // the worker observes the signal (or its own clock)
	evResume                      // yield overheads paid: transit ends
)

// worker models one worker thread.
type worker struct {
	id       int
	local    []*Request // bounded local queue (in-service request not included)
	cur      *Request
	runStart sim.Cycles // when the current segment began executing
	segEnd   sim.Cycles // when the current segment will complete
	signaled bool
	idle     bool
	// transit is true while the worker pays yield overheads (notify +
	// context switch); it cannot accept a new request until they finish.
	transit   bool
	idleSince sim.Cycles
	totalIdle sim.Cycles

	// timer fires the worker's one pending event, next. Its events never
	// overlap but for a completion behind a dispatcher-watched quantum:
	// the expiry fires first, then re-arms the timer for the completion
	// with the sequence number doneSeq reserved when the segment started,
	// so the completion fires exactly where a timer of its own would.
	timer   *sim.Timer
	next    workerEvent
	doneSeq uint64

	// handoffs carry requests pushed while the worker was stalled through
	// the c_next delay, and inflight holds those requests. Up to
	// QueueBound pushes can be under way at once; all pay the same delay,
	// so they land in push order and the timers are used round-robin.
	handoffs []*sim.Timer
	inflight []*Request
	pushes   int
}

// Machine is one simulated server instance processing one run.
type Machine struct {
	cfg Config
	wl  Workload
	p   RunParams

	eng     *sim.Engine
	rng     *sim.RNG
	central policy.Queue[*Request]
	workers []*worker
	occ     []int // dispatcher's view of per-worker occupancy
	roomy   int   // how many of occ are below QueueBound

	ops     []op
	opsHead int
	dBusy   bool
	saved   *Request // work-conserving dispatcher's parked request

	// dBusy serializes the dispatcher: at most one operation (pending) or
	// one steal (the state below) is paying its cost, and dispatcher — the
	// engine's slot timer, these being nearly half of all events — fires
	// when it is paid.
	pending    op
	dispatcher *sim.Timer
	arrival    *sim.Timer

	// In-flight work-conserving steal state (single slot, like pending).
	stealReq      *Request
	stealSlice    sim.Cycles
	stealTotal    sim.Cycles
	stealFinishes bool

	// freeReqs recycles completed Request objects; in steady state the
	// allocation rate drops from one per request to one per unit of peak
	// concurrency. Disabled when OnComplete is set (callers may retain).
	freeReqs []*Request

	quantum  sim.Cycles
	workerOv float64 // worker-side c_proc fraction
	dispOv   float64 // dispatcher-side c_proc fraction (rdtsc instrumentation)
	// The mechanism's constant answers, asked once: a call through Mech
	// copies its whole cost model.
	selfPreempt            bool
	signalCost, notifyCost sim.Cycles

	// run state
	admitted     int
	completed    int
	stolen       int
	preemptions  int
	arrivalsDone bool
	lastArrival  sim.Cycles
	watchdog     *sim.Timer
	saturated    bool
	dBusyCycles  sim.Cycles

	collector *stats.Collector
	// OnComplete, when non-nil, receives every completed request
	// (including warmup) for trace analysis.
	OnComplete func(*Request)

	nextID uint64
}

// Result summarizes one run.
type Result struct {
	Point     stats.Point
	Collector *stats.Collector
	Saturated bool
	Completed int
	Admitted  int
}

// New builds a machine for the given system, workload, and run
// parameters. It panics on an invalid Config (use Config.Validate to
// check first when the config is not statically known).
func New(cfg Config, wl Workload, p RunParams) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	p = p.withDefaults()
	m := &Machine{
		cfg: cfg,
		wl:  wl,
		p:   p,
		eng: sim.NewEngine(),
		rng: sim.NewRNG(p.Seed),
		ops: make([]op, 0, 256),
	}
	if p.ExactSamples {
		m.collector = stats.NewCollector(p.Requests)
	} else {
		m.collector = stats.NewReservoir(stats.DefaultReservoirSize, p.Requests, p.Seed)
	}
	discipline := "fcfs"
	if cfg.SRPT {
		discipline = "srpt"
	}
	central, err := policy.NewQueue[*Request](discipline)
	if err != nil {
		panic(err)
	}
	m.central = central
	m.workers = make([]*worker, cfg.Workers)
	m.occ = make([]int, cfg.Workers)
	m.roomy = cfg.Workers
	for i := range m.workers {
		w := &worker{
			id:    i,
			idle:  true,
			local: make([]*Request, 0, cfg.QueueBound),
		}
		w.timer = m.eng.NewTimer(func(t sim.Cycles) { m.fire(w, t) })
		handoff := func(t sim.Cycles) { m.receive(w, popFront(&w.inflight), t) }
		w.inflight = make([]*Request, 0, cfg.QueueBound)
		w.handoffs = make([]*sim.Timer, cfg.QueueBound)
		for k := range w.handoffs {
			w.handoffs[k] = m.eng.NewTimer(handoff)
		}
		m.workers[i] = w
	}
	m.dispatcher = m.eng.NewSlotTimer(func(t sim.Cycles) {
		if m.stealReq != nil {
			m.stealDone(t)
		} else {
			m.dispatchDone(t)
		}
	})
	m.arrival = m.eng.NewTimer(m.arrive)
	m.watchdog = m.eng.NewTimer(func(sim.Cycles) {
		m.saturated = true
		m.eng.Stop()
	})
	m.quantum = cfg.Model.MicrosToCycles(cfg.QuantumUS)
	if cfg.Mech != nil {
		m.workerOv = cfg.Mech.ProcOverhead()
		m.selfPreempt = cfg.Mech.SelfPreempting()
		m.signalCost, m.notifyCost = cfg.Mech.SignalCost(), cfg.Mech.NotifyCost()
	} else {
		m.workerOv = cfg.Model.RuntimeOverhead
	}
	// The dispatcher's stolen work always runs under rdtsc
	// self-preemption instrumentation (§3.3).
	m.dispOv = cfg.Model.RuntimeOverhead + cfg.Model.InstrOverheadRdtsc
	return m
}

// Run executes the simulation to completion and returns the summary.
func (m *Machine) Run() Result {
	m.scheduleArrival(0)
	m.eng.Run()
	return m.result()
}

// ---------- arrivals ----------

func (m *Machine) scheduleArrival(now sim.Cycles) {
	if m.admitted >= m.p.Requests {
		m.arrivalsDone = true
		m.lastArrival = now
		slack := m.cfg.Model.MicrosToCycles(m.p.DrainSlackUS)
		m.watchdog.Set(now + slack)
		return
	}
	gap := m.cfg.Model.MicrosToCycles(m.wl.Arrival.NextGapUS(m.rng))
	m.arrival.Set(now + gap)
}

func (m *Machine) arrive(t sim.Cycles) {
	req := m.newRequest(t)
	m.admitted++
	m.enqueueOp(op{kind: opArrival, req: req, epoch: req.epoch, cost: m.cfg.Model.ArrivalCost}, t)
	m.scheduleArrival(t)
}

func (m *Machine) newRequest(now sim.Cycles) *Request {
	s := m.wl.Dist.Sample(m.rng)
	sc := m.cfg.Model.MicrosToCycles(s.ServiceUS)
	if sc < 1 {
		sc = 1
	}
	var req *Request
	if n := len(m.freeReqs); n > 0 {
		req = m.freeReqs[n-1]
		m.freeReqs[n-1] = nil
		m.freeReqs = m.freeReqs[:n-1]
		*req = Request{epoch: req.epoch}
	} else {
		req = &Request{}
	}
	req.ID = m.nextID
	req.Class = s.Class
	req.ServiceUS = s.ServiceUS
	req.serviceCycles = sc
	req.remainingBase = sc
	req.Arrival = now
	req.FirstStart = -1
	req.warmup = m.admitted < int(float64(m.p.Requests)*m.p.WarmupFrac)
	if m.cfg.HintedSRPT {
		req.useHint = true
		if s.HintUS > 0 {
			if req.hintCycles = m.cfg.Model.MicrosToCycles(s.HintUS); req.hintCycles < 1 {
				req.hintCycles = 1
			}
		}
	}
	m.nextID++
	if frac, ok := m.wl.CritFracByClass[s.Class]; ok && frac > 0 {
		critBase := sim.Cycles(float64(sc) * frac)
		req.critWall = wallFor(critBase, m.workerOv)
	}
	return req
}

// ---------- dispatcher ----------

func (m *Machine) enqueueOp(o op, now sim.Cycles) {
	m.ops = append(m.ops, o)
	m.kick(now)
}

// popOp moves the oldest queued operation into pending.
func (m *Machine) popOp() bool {
	if m.opsHead >= len(m.ops) {
		return false
	}
	m.pending = m.ops[m.opsHead]
	m.ops[m.opsHead] = op{}
	m.opsHead++
	if m.opsHead == len(m.ops) {
		m.ops = m.ops[:0]
		m.opsHead = 0
	} else if m.opsHead > 1024 && m.opsHead*2 > len(m.ops) {
		n := copy(m.ops, m.ops[m.opsHead:])
		for i := n; i < len(m.ops); i++ {
			m.ops[i] = op{}
		}
		m.ops = m.ops[:n]
		m.opsHead = 0
	}
	return true
}

// kick advances the dispatcher if it is idle. Dispatches take priority
// over pending operations: as in the real dispatch loop, requests flow to
// free worker slots before new packets are ingested, and the two phases
// alternate naturally because dispatching drains the central queue while
// pending arrivals refill it.
func (m *Machine) kick(now sim.Cycles) {
	if m.dBusy {
		return
	}
	if m.generateOp() || m.popOp() {
		m.dBusy = true
		m.dispatcher.Set(now + m.pending.cost)
		return
	}
	if m.cfg.WorkConserving {
		m.steal(now)
	}
}

func (m *Machine) dispatchDone(t sim.Cycles) {
	o := m.pending
	m.pending = op{}
	m.dBusy = false
	m.dBusyCycles += o.cost
	m.apply(o, t)
	m.kick(t)
}

// generateOp makes pending a dispatch operation if the central queue has
// work and some worker queue has room.
func (m *Machine) generateOp() bool {
	if m.central.Len() == 0 || m.roomy == 0 {
		return false
	}
	w := policy.ShortestQueue(m.occ, m.cfg.QueueBound)
	c := m.cfg.Model.DispatchBase + m.cfg.DispatchExtra
	if m.cfg.QueueBound > 1 {
		c += m.cfg.Model.DispatchJBSQExtra
	}
	m.pending = op{kind: opPush, worker: w, cost: c}
	return true
}

func (m *Machine) apply(o op, now sim.Cycles) {
	switch o.kind {
	case opArrival:
		m.central.Push(o.req, false)
		if m.central.Len() > m.p.MaxCentralQueue {
			m.saturated = true
			m.eng.Stop()
		}
	case opPush:
		req, ok := m.central.Pop()
		if !ok {
			return
		}
		w := m.workers[o.worker]
		m.occupy(o.worker, 1)
		if w.idle && w.cur == nil && len(w.local) == 0 {
			// The worker is stalled waiting: it pays the synchronous
			// handoff's coherence misses (c_next) before it can start.
			w.inflight = append(w.inflight, req)
			w.handoffs[w.pushes%len(w.handoffs)].Set(now + m.cfg.Model.NextRequest)
			w.pushes++
		} else {
			// Push overlaps with the worker's current execution.
			m.receive(w, req, now)
		}
	case opSignal:
		m.deliverSignal(o, now)
	case opRequeue:
		m.occupy(o.worker, -1)
		m.central.Push(o.req, true)
	case opSlotFree:
		m.occupy(o.worker, -1)
	}
}

// ---------- work-conserving dispatcher (§3.3) ----------

func (m *Machine) steal(now sim.Cycles) {
	req := m.saved
	if req == nil {
		if m.roomy > 0 {
			return
		}
		var ok bool
		req, ok = m.central.PopNonStarted()
		if !ok {
			return
		}
		req.started = true
		req.onDispatcher = true
		if req.FirstStart < 0 {
			req.FirstStart = now
		}
	}
	m.saved = nil
	wall := wallFor(req.remainingBase, m.dispOv)
	slice := m.cfg.Model.DispatcherSlice
	finishes := wall <= slice
	if finishes {
		slice = wall
	}
	// A context switch into (and, if parking, out of) the request.
	total := slice + m.cfg.Model.ContextSwitch
	if total < 1 {
		total = 1
	}
	m.dBusy = true
	m.stealReq = req
	m.stealSlice = slice
	m.stealTotal = total
	m.stealFinishes = finishes
	m.dispatcher.Set(now + total)
}

func (m *Machine) stealDone(t sim.Cycles) {
	req, slice, total, finishes := m.stealReq, m.stealSlice, m.stealTotal, m.stealFinishes
	m.stealReq = nil
	m.dBusy = false
	m.dBusyCycles += total
	if finishes {
		req.remainingBase = 0
		m.stolen++
		m.complete(req, t)
	} else {
		req.remainingBase -= baseFor(slice, m.dispOv)
		if req.remainingBase < 1 {
			req.remainingBase = 1
		}
		m.saved = req
	}
	m.kick(t)
}

// occupy adds d to worker i's occupancy, keeping roomy in step.
func (m *Machine) occupy(i, d int) {
	if m.occ[i] == m.cfg.QueueBound {
		m.roomy++
	}
	m.occ[i] += d
	if m.occ[i] == m.cfg.QueueBound {
		m.roomy--
	}
}

// ---------- workers ----------

func (m *Machine) receive(w *worker, req *Request, now sim.Cycles) {
	w.local = append(w.local, req)
	if w.cur == nil && !w.transit {
		m.acquireNext(w, now)
	}
}

// popFront removes and returns the head of a short FIFO.
func popFront(q *[]*Request) *Request {
	s := *q
	req := s[0]
	n := copy(s, s[1:])
	s[n] = nil
	*q = s[:n]
	return req
}

func (m *Machine) acquireNext(w *worker, now sim.Cycles) {
	req := popFront(&w.local)
	if w.idle {
		w.totalIdle += now - w.idleSince
		w.idle = false
	}
	overhead := m.cfg.Model.JBSQLocalPop + m.cfg.Model.ContextSwitch
	m.startSegment(w, req, now+overhead)
}

func (m *Machine) startSegment(w *worker, req *Request, start sim.Cycles) {
	w.cur = req
	w.signaled = false
	w.runStart = start
	if !req.started {
		req.started = true
	}
	if req.FirstStart < 0 {
		req.FirstStart = start
	}
	wall := wallFor(req.remainingBase, m.workerOv)
	if req.Preemptions > 0 {
		// Resuming a preempted request refills its working set.
		wall += m.cfg.Model.PreemptCacheReload
	}
	w.segEnd = start + wall
	m.armSegment(w, req, start)
}

// arm sets the worker's timer to fire ev at the given time.
func (w *worker) arm(ev workerEvent, at sim.Cycles) {
	w.next = ev
	w.timer.Set(at)
}

// fire runs the worker's pending event.
func (m *Machine) fire(w *worker, now sim.Cycles) {
	switch w.next {
	case evComplete:
		m.completeSegment(w, now)
	case evExpire:
		w.next = evComplete
		w.timer.SetSeq(w.segEnd, w.doneSeq)
		m.signal(w, now)
	case evYield:
		m.yield(w, now)
	case evResume:
		w.transit = false
		m.workerNext(w, now)
	}
}

// armSegment arms the worker's timer for the segment just started: for
// its completion, or first for the preemption that may cut it short.
func (m *Machine) armSegment(w *worker, req *Request, start sim.Cycles) {
	expiry := start + m.quantum
	// Shinjuku's LevelDB port disables preemption for the whole request
	// when it may take locks.
	if m.quantum <= 0 || m.cfg.Mech == nil || expiry >= w.segEnd ||
		m.cfg.DeferWholeRequest && req.critWall > 0 {
		w.arm(evComplete, w.segEnd)
		return
	}
	if m.selfPreempt {
		// A worker that preempts itself before segEnd never reaches it.
		if observe := expiry + m.cfg.Mech.ObserveDelay(m.rng); observe < w.segEnd {
			w.arm(evYield, observe)
		} else {
			w.arm(evComplete, w.segEnd)
		}
		return
	}
	// The dispatcher monitors elapsed time and signals at expiry; the
	// signal is one of its serialized operations, so it is late when the
	// dispatcher is busy. The completion waits behind the expiry with the
	// sequence number it would have drawn now.
	w.arm(evExpire, expiry)
	w.doneSeq = m.eng.Reserve()
}

// signal is the quantum expiry: the dispatcher queues a preemption signal.
func (m *Machine) signal(w *worker, now sim.Cycles) {
	req := w.cur
	m.enqueueOp(op{kind: opSignal, req: req, epoch: req.epoch, worker: w.id, cost: m.signalCost}, now)
}

func (m *Machine) deliverSignal(o op, now sim.Cycles) {
	w := m.workers[o.worker]
	if w.cur != o.req || o.req.epoch != o.epoch || w.signaled {
		return // stale: the request already left this worker
	}
	w.signaled = true
	yieldAt := now + m.cfg.Mech.ObserveDelay(m.rng)
	if o.req.Preemptions == 0 && o.req.critWall > 0 {
		// Safety-first preemption: defer the yield past the critical
		// section (§3.1).
		if critEnd := w.runStart + o.req.critWall; critEnd > yieldAt {
			yieldAt = critEnd
		}
	}
	if yieldAt >= w.segEnd {
		return // the request completes before it would yield
	}
	w.arm(evYield, yieldAt) // replaces the completion it precedes
}

func (m *Machine) yield(w *worker, now sim.Cycles) {
	req := w.cur
	elapsed := now - w.runStart
	consumed := baseFor(elapsed, m.workerOv)
	if consumed >= req.remainingBase {
		consumed = req.remainingBase - 1
	}
	if consumed < 0 {
		consumed = 0
	}
	req.remainingBase -= consumed
	req.Preemptions++
	m.preemptions++
	w.cur = nil
	w.signaled = false
	w.transit = true
	m.enqueueOp(op{kind: opRequeue, req: req, epoch: req.epoch, worker: w.id, cost: m.cfg.Model.RequeueCost}, now)
	overhead := m.notifyCost + m.cfg.Model.ContextSwitch
	w.arm(evResume, now+overhead)
}

func (m *Machine) completeSegment(w *worker, now sim.Cycles) {
	req := w.cur
	req.remainingBase = 0
	w.cur = nil
	w.signaled = false
	m.complete(req, now)
	m.enqueueOp(op{kind: opSlotFree, worker: w.id, cost: m.cfg.Model.SlotFreeCost}, now)
	m.workerNext(w, now)
}

func (m *Machine) workerNext(w *worker, now sim.Cycles) {
	if len(w.local) > 0 {
		m.acquireNext(w, now)
		return
	}
	w.idle = true
	w.idleSince = now
}

// ---------- completion & results ----------

func (m *Machine) complete(req *Request, now sim.Cycles) {
	req.Done = now
	m.completed++
	if m.OnComplete != nil {
		m.OnComplete(req)
	}
	if !req.warmup {
		m.collector.Add(stats.Sample{
			Slowdown:  float64(now-req.Arrival) / float64(req.serviceCycles),
			SojournUS: m.cfg.Model.CyclesToMicros(now - req.Arrival),
		})
	}
	if m.arrivalsDone && m.completed == m.admitted {
		m.watchdog.Stop()
		m.eng.Stop()
	}
	if m.OnComplete == nil {
		// Recycle: nothing outside the machine can retain the request.
		// Bump the epoch now so any still-queued dispatcher op for the
		// finished lifetime is recognizably stale.
		req.epoch++
		m.freeReqs = append(m.freeReqs, req)
	}
}

func (m *Machine) result() Result {
	span := m.eng.Now()
	if span <= 0 {
		span = 1
	}
	var idle sim.Cycles
	for _, w := range m.workers {
		idle += w.totalIdle
		if w.idle {
			idle += m.eng.Now() - w.idleSince
		}
	}
	pt := stats.Point{
		AchievedKRps:   float64(m.completed) / (m.cfg.Model.CyclesToMicros(span) / 1000) / 1000,
		P50:            m.collector.SlowdownPercentile(50),
		P99:            m.collector.SlowdownPercentile(99),
		P999:           m.collector.SlowdownPercentile(99.9),
		Mean:           m.collector.MeanSlowdown(),
		Samples:        m.collector.Len(),
		DispatcherBusy: float64(m.dBusyCycles) / float64(span),
		WorkerIdle:     float64(idle) / float64(span) / float64(m.cfg.Workers),
	}
	if m.completed > 0 {
		pt.StolenFrac = float64(m.stolen) / float64(m.completed)
		pt.Preemptions = float64(m.preemptions) / float64(m.completed)
	}
	sat := m.saturated || m.completed < m.admitted
	if sat {
		// Unfinished requests are worse than anything measured: the tail
		// metric is unbounded at this load.
		pt.P999 = math.Inf(1)
	}
	return Result{
		Point:     pt,
		Collector: m.collector,
		Saturated: sat,
		Completed: m.completed,
		Admitted:  m.admitted,
	}
}
