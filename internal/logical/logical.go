// Package logical simulates single-LOGICAL-queue runtimes — the
// Shenango/Caladan/ZygOS family §2 defers and §6 returns to: there is no
// dispatcher-owned central queue; requests land in per-worker queues and
// idle workers steal from busy ones, so the set of queues behaves like
// one logical queue.
//
// §6 argues Concord's mechanisms transplant onto this architecture: a
// dedicated scheduler hyperthread (Caladan already has one) monitors
// per-worker elapsed quanta and writes the preemption cache lines, and
// preempted requests re-join the *owner's* queue (there is no central
// queue to return to), where they can be stolen like any other request.
// This package implements exactly that, so the repository covers both
// halves of the paper's design space:
//
//   - RunToCompletion (Shenango-like): stealing, no preemption.
//   - CoopPreemption (the §6 Concord extension): stealing + a scheduler
//     thread driving compiler-enforced cooperation.
//
// The same cost model applies: steals cost coherence misses, the
// scheduler is a serial resource, probes inflate service time.
package logical

import (
	"math"

	"concord/internal/cost"
	"concord/internal/dist"
	"concord/internal/mech"
	"concord/internal/sim"
	"concord/internal/stats"
)

// Config describes one single-logical-queue system.
type Config struct {
	// Name labels the system in reports.
	Name string
	// Workers is the number of worker threads.
	Workers int
	// QuantumUS is the scheduling quantum; 0 disables preemption.
	QuantumUS float64
	// Mech is the preemption mechanism (§6 uses CacheLine); ignored when
	// QuantumUS == 0.
	Mech mech.Mechanism
	// Model is the CPU cost model.
	Model cost.Model
	// StealCost is the coherence cost of stealing one request from
	// another worker's queue; 0 uses 2× the model's NextRequest (a CAS
	// plus the request-line transfer, per the ZygOS measurements).
	StealCost sim.Cycles
	// DisableStealing turns off work stealing, leaving n independent
	// queues — the strawman the single-logical-queue design exists to
	// beat; used for ablation.
	DisableStealing bool
}

func (c Config) stealCost() sim.Cycles {
	if c.StealCost > 0 {
		return c.StealCost
	}
	return c.Model.NextRequest
}

// RunToCompletion returns a Shenango-like configuration: work stealing,
// no preemption.
func RunToCompletion(m cost.Model, workers int) Config {
	return Config{
		Name:    "Logical-RTC",
		Workers: workers,
		Mech:    mech.None{M: m},
		Model:   m,
	}
}

// CoopPreemption returns the §6 Concord extension: work stealing plus a
// scheduler hyperthread driving cache-line cooperative preemption.
func CoopPreemption(m cost.Model, workers int, quantumUS float64) Config {
	return Config{
		Name:      "Logical-Concord",
		Workers:   workers,
		QuantumUS: quantumUS,
		Mech:      mech.CacheLine{M: m},
		Model:     m,
	}
}

// request is one in-flight request.
type request struct {
	serviceCycles sim.Cycles
	remainingBase sim.Cycles
	arrival       sim.Cycles
	preemptions   int
	warmup        bool
}

// worker is one worker thread with its own queue.
type worker struct {
	id    int
	queue []*request
	cur   *request

	runStart sim.Cycles
	segEnd   sim.Cycles
	signaled bool
	idle     bool
	// waking is set between an enqueue-to-idle-worker and the worker
	// actually starting, so concurrent enqueues don't double-start it.
	waking       bool
	idleSince    sim.Cycles
	totalIdle    sim.Cycles
	completionEv *sim.Timer
	quantumEv    *sim.Timer
	yieldEv      *sim.Timer
}

// Machine simulates one run of a single-logical-queue server.
type Machine struct {
	cfg Config
	dst dist.Dist
	arr dist.Arrival
	p   Params

	eng     *sim.Engine
	rng     *sim.RNG
	workers []*worker
	// scheduler is a serial resource: quantum signals queue behind each
	// other like the dispatcher's ops do in internal/server.
	schedBusyUntil sim.Cycles
	schedBusy      sim.Cycles

	workerOv float64

	admitted, completed int
	preemptions, steals int
	arrivalsDone        bool
	watchdog            *sim.Timer
	saturated           bool
	rr                  int // round-robin arrival steering

	collector *stats.Collector
}

// Params controls one run.
type Params struct {
	Requests     int
	WarmupFrac   float64
	Seed         uint64
	DrainSlackUS float64
	MaxQueue     int
}

func (p Params) withDefaults() Params {
	if p.Requests <= 0 {
		p.Requests = 100000
	}
	if p.WarmupFrac <= 0 {
		p.WarmupFrac = 0.1
	}
	if p.DrainSlackUS <= 0 {
		p.DrainSlackUS = 50000
	}
	if p.MaxQueue <= 0 {
		p.MaxQueue = 1 << 20
	}
	return p
}

// Result summarizes one run.
type Result struct {
	Point     stats.Point
	Saturated bool
	Steals    int
	Completed int
}

// New builds a machine.
func New(cfg Config, d dist.Dist, arrival dist.Arrival, p Params) *Machine {
	if cfg.Workers < 1 {
		panic("logical: need at least one worker")
	}
	p = p.withDefaults()
	m := &Machine{
		cfg:       cfg,
		dst:       d,
		arr:       arrival,
		p:         p,
		eng:       sim.NewEngine(),
		rng:       sim.NewRNG(p.Seed),
		collector: stats.NewCollector(p.Requests),
	}
	m.workers = make([]*worker, cfg.Workers)
	for i := range m.workers {
		m.workers[i] = &worker{id: i, idle: true}
	}
	if cfg.Mech != nil {
		m.workerOv = cfg.Mech.ProcOverhead()
	} else {
		m.workerOv = cfg.Model.RuntimeOverhead
	}
	return m
}

// Run executes the simulation.
func (m *Machine) Run() Result {
	m.scheduleArrival(0)
	m.eng.Run()
	span := m.eng.Now()
	if span <= 0 {
		span = 1
	}
	var idle sim.Cycles
	for _, w := range m.workers {
		idle += w.totalIdle
		if w.idle {
			idle += span - w.idleSince
		}
	}
	pt := stats.Point{
		AchievedKRps:   float64(m.completed) / (m.cfg.Model.CyclesToMicros(span) / 1000) / 1000,
		P50:            m.collector.SlowdownPercentile(50),
		P99:            m.collector.SlowdownPercentile(99),
		P999:           m.collector.SlowdownPercentile(99.9),
		Mean:           m.collector.MeanSlowdown(),
		Samples:        m.collector.Len(),
		WorkerIdle:     float64(idle) / float64(span) / float64(m.cfg.Workers),
		DispatcherBusy: float64(m.schedBusy) / float64(span),
	}
	if m.completed > 0 {
		pt.Preemptions = float64(m.preemptions) / float64(m.completed)
	}
	sat := m.saturated || m.completed < m.admitted
	if sat {
		pt.P999 = math.Inf(1)
	}
	return Result{Point: pt, Saturated: sat, Steals: m.steals, Completed: m.completed}
}

// ---------- arrivals ----------

func (m *Machine) scheduleArrival(now sim.Cycles) {
	if m.admitted >= m.p.Requests {
		m.arrivalsDone = true
		slack := m.cfg.Model.MicrosToCycles(m.p.DrainSlackUS)
		m.watchdog = m.eng.At(now+slack, func(sim.Cycles) {
			m.saturated = true
			m.eng.Stop()
		})
		return
	}
	gap := m.cfg.Model.MicrosToCycles(m.arr.NextGapUS(m.rng))
	m.eng.After(gap, func(t sim.Cycles) {
		s := m.dst.Sample(m.rng)
		sc := m.cfg.Model.MicrosToCycles(s.ServiceUS)
		if sc < 1 {
			sc = 1
		}
		req := &request{
			serviceCycles: sc, remainingBase: sc, arrival: t,
			warmup: m.admitted < int(float64(m.p.Requests)*m.p.WarmupFrac),
		}
		m.admitted++
		// The networker steers the packet straight into a worker queue
		// (round-robin): no serialized dispatcher on the request path.
		w := m.workers[m.rr%len(m.workers)]
		m.rr++
		m.enqueue(w, req, t)
		m.scheduleArrival(t)
	})
}

func (m *Machine) enqueue(w *worker, req *request, now sim.Cycles) {
	w.queue = append(w.queue, req)
	if len(w.queue) > m.p.MaxQueue {
		m.saturated = true
		m.eng.Stop()
		return
	}
	if w.idle && !w.waking {
		// The owner wakes and pays the handoff coherence cost.
		w.waking = true
		m.eng.After(m.cfg.Model.NextRequest, func(t sim.Cycles) {
			w.waking = false
			m.startNext(w, t)
		})
		return
	}
	if m.cfg.DisableStealing {
		return
	}
	// Work stealing keeps the queues logically one: any idle worker
	// grabs the request after the steal handshake.
	if thief := m.idleWorker(); thief != nil {
		m.stealInto(thief, now)
	}
}

func (m *Machine) idleWorker() *worker {
	for _, w := range m.workers {
		if w.idle && !w.waking {
			return w
		}
	}
	return nil
}

// stealInto makes thief steal one request from the longest queue after
// the steal cost elapses (if work is still there by then).
func (m *Machine) stealInto(thief *worker, now sim.Cycles) {
	if !thief.idle || thief.waking {
		return
	}
	thief.idle = false // reserve the thief so one steal is in flight
	thief.totalIdle += now - thief.idleSince
	m.eng.After(m.cfg.stealCost(), func(t sim.Cycles) {
		victim := m.longestQueue()
		if victim == nil || len(victim.queue) == 0 {
			thief.idle = true
			thief.idleSince = t
			return
		}
		req := victim.queue[0]
		victim.queue = victim.queue[1:]
		m.steals++
		m.begin(thief, req, t)
	})
}

func (m *Machine) longestQueue() *worker {
	var best *worker
	for _, w := range m.workers {
		if len(w.queue) == 0 {
			continue
		}
		if best == nil || len(w.queue) > len(best.queue) {
			best = w
		}
	}
	return best
}

// ---------- execution ----------

// startNext has w take its own queue head (or steal) at time now.
func (m *Machine) startNext(w *worker, now sim.Cycles) {
	if len(w.queue) > 0 {
		req := w.queue[0]
		w.queue = w.queue[1:]
		if w.idle {
			w.idle = false
			w.totalIdle += now - w.idleSince
		}
		m.begin(w, req, now)
		return
	}
	// Own queue empty: try to steal.
	if m.cfg.DisableStealing {
		if !w.idle {
			w.idle = true
			w.idleSince = now
		}
		return
	}
	victim := m.longestQueue()
	if victim != nil {
		if !w.idle {
			w.idle = true
			w.idleSince = now
		}
		m.stealInto(w, now)
		return
	}
	if !w.idle {
		w.idle = true
		w.idleSince = now
	}
}

func (m *Machine) begin(w *worker, req *request, now sim.Cycles) {
	start := now + m.cfg.Model.ContextSwitch
	w.cur = req
	w.signaled = false
	w.runStart = start
	wall := sim.Cycles(float64(req.remainingBase) * (1 + m.workerOv))
	if wall < 1 {
		wall = 1
	}
	w.segEnd = start + wall
	w.completionEv = m.eng.At(w.segEnd, func(t sim.Cycles) {
		m.complete(w, t)
	})
	m.scheduleQuantum(w, req, start)
}

// scheduleQuantum models the scheduler hyperthread: it notices the
// elapsed quantum and writes the worker's cache line; signals serialize
// on the scheduler like dispatcher ops do.
func (m *Machine) scheduleQuantum(w *worker, req *request, start sim.Cycles) {
	if m.cfg.QuantumUS <= 0 || m.cfg.Mech == nil {
		return
	}
	q := m.cfg.Model.MicrosToCycles(m.cfg.QuantumUS)
	expiry := start + q
	if expiry >= w.segEnd {
		return
	}
	w.quantumEv = m.eng.At(expiry, func(t sim.Cycles) {
		// Serialize on the scheduler thread.
		at := t
		if m.schedBusyUntil > at {
			at = m.schedBusyUntil
		}
		cost := m.cfg.Mech.SignalCost()
		m.schedBusyUntil = at + cost
		m.schedBusy += cost
		m.eng.At(at+cost, func(ts sim.Cycles) {
			m.deliverSignal(w, req, ts)
		})
	})
}

func (m *Machine) deliverSignal(w *worker, req *request, now sim.Cycles) {
	if w.cur != req || w.signaled {
		return
	}
	w.signaled = true
	yieldAt := now + m.cfg.Mech.ObserveDelay(m.rng)
	if yieldAt >= w.segEnd {
		return
	}
	w.yieldEv = m.eng.At(yieldAt, func(t sim.Cycles) {
		m.yield(w, req, t)
	})
}

func (m *Machine) yield(w *worker, req *request, now sim.Cycles) {
	if w.cur != req {
		return
	}
	elapsed := now - w.runStart
	consumed := sim.Cycles(float64(elapsed) / (1 + m.workerOv))
	if consumed >= req.remainingBase {
		consumed = req.remainingBase - 1
	}
	if consumed < 0 {
		consumed = 0
	}
	req.remainingBase -= consumed
	req.preemptions++
	m.preemptions++
	w.completionEv.Stop()
	w.quantumEv.Stop()
	w.cur = nil
	w.signaled = false
	// The preempted request re-joins the owner's queue tail (§6: no
	// central queue to return to); it is stealable there.
	w.queue = append(w.queue, req)
	overhead := m.cfg.Mech.NotifyCost() + m.cfg.Model.ContextSwitch
	m.eng.After(overhead, func(t sim.Cycles) {
		m.startNext(w, t)
	})
}

func (m *Machine) complete(w *worker, now sim.Cycles) {
	req := w.cur
	req.remainingBase = 0
	w.quantumEv.Stop()
	w.yieldEv.Stop()
	w.cur = nil
	m.completed++
	if !req.warmup {
		m.collector.Add(stats.Sample{
			Slowdown: float64(now-req.arrival) / float64(req.serviceCycles),
		})
	}
	if m.arrivalsDone && m.completed == m.admitted {
		m.watchdog.Stop()
		m.eng.Stop()
		return
	}
	m.startNext(w, now)
}

// RunAt sweeps one load point with a Poisson arrival process.
func RunAt(cfg Config, d dist.Dist, kRps float64, p Params) stats.Point {
	mach := New(cfg, d, dist.NewPoisson(kRps*1000), p)
	res := mach.Run()
	pt := res.Point
	pt.OfferedKRps = kRps
	return pt
}

// Sweep runs a load sweep and returns the slowdown curve.
func Sweep(cfg Config, d dist.Dist, loadsKRps []float64, p Params) stats.Curve {
	c := stats.Curve{System: cfg.Name}
	for i, kRps := range loadsKRps {
		pp := p
		pp.Seed = p.Seed*1_000_003 + uint64(i) + 1
		c.Points = append(c.Points, RunAt(cfg, d, kRps, pp))
	}
	return c
}
