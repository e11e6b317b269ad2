// Package adapt is the scheduling control plane: a slow-path controller
// that watches the observability layer's rolling tail quantiles, SLO
// burn rates, and an online service-time dispersion estimate, and
// steers the live runtime's fast-path knobs — the preemption quantum,
// per-class quanta, and the fcfs↔srpt queue discipline. The fast path
// never blocks on the controller: every actuator is an atomic the
// dispatcher reads at its own pace (§2's model selects the discipline;
// the controller merely re-evaluates that selection as the workload
// drifts).
package adapt

import (
	"sync"
	"time"

	"concord/internal/obs"
)

// Policy names the controller switches between — string-compatible with
// the live runtime's registry (adapt stays import-light on purpose; the
// Runtime interface is the only coupling).
const (
	PolicyFCFS = "fcfs"
	PolicySRPT = "srpt"
)

// Runtime is the actuator surface the controller drives, satisfied by
// *live.Server. Every method is safe to call while the server runs:
// the quantum knobs are atomics the dispatcher reads at signal time,
// and SetPolicy drain-and-swaps each shard's queue at a quiesce point.
type Runtime interface {
	SetQuantum(d time.Duration)
	Quantum() time.Duration
	SetClassQuantum(class int, d time.Duration)
	SetPolicy(name string) error
	Policy() string
}

// Config tunes the control loop. Zero values take the documented
// defaults.
type Config struct {
	// Interval is the control period — how often signals are sampled
	// and actuators re-evaluated. Default 50ms: glacial next to the
	// microsecond fast path, fast next to workload drift.
	Interval time.Duration
	// MinQuantum/MaxQuantum bound the adaptive preemption quantum.
	// Defaults 5µs / 500µs. On an adaptive server the quantum always
	// stays inside these bounds (an unset Options.Quantum starts at
	// MaxQuantum).
	MinQuantum, MaxQuantum time.Duration
	// SLOTarget is the tail-latency goal the quantum chases: the
	// controller tightens the quantum (multiplicative decrease) while
	// the rolling p99.9 exceeds it or the short SLO window burns hot,
	// and relaxes it (slower multiplicative increase) while p99.9 sits
	// below half the target. 0 disables quantum adaptation.
	SLOTarget time.Duration
	// MinDwell is the shortest time between policy switches, so a
	// workload sitting near the threshold cannot thrash the queues.
	// Default 20×Interval.
	MinDwell time.Duration
	// ClassScales maps a scheduling class to a multiplier on the base
	// quantum (e.g. live.ClassCritical→0.5, live.ClassSheddable→4).
	// Scaled quanta are re-derived and clamped to [MinQuantum,
	// MaxQuantum] whenever the base quantum moves. Nil disables
	// per-class quanta.
	ClassScales map[int]float64
	// ClassTiers maps a class to its SLO tier (live.SLOClass.Tier) and
	// constrains the resolved scales: a tier-0 (critical) class's scale
	// is capped at 1 — its quantum is never looser than the base, no
	// matter what the measured service times say — and a tier ≥2
	// (sheddable) class's scale is floored at 1, so background traffic
	// never preempts more eagerly than the base. Nil applies no tier
	// constraints.
	ClassTiers map[int]int
	// ClassSvcNS, when set, supplies measured per-class service-time
	// quantiles in ns (index = class; 0 = no data for that class yet —
	// typically obs.ClassSketches.ServiceQuantilesNS). The controller
	// then derives each class's quantum scale from measurement instead
	// of the static ClassScales table: scale_c = svc_c / svc_default,
	// clamped to [1/16, 16], re-evaluated every tick so the quanta track
	// workload shifts. Classes without data (and ticks before any class
	// has data) fall back to ClassScales.
	ClassSvcNS func() []float64
	// DecisionLog is the capacity of the decision ring every Step
	// records into (see Decisions / WriteDecisionDump). Default 512;
	// negative disables retention (per-action counts still accumulate).
	DecisionLog int
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 50 * time.Millisecond
	}
	if c.MinQuantum <= 0 {
		c.MinQuantum = 5 * time.Microsecond
	}
	if c.MaxQuantum < c.MinQuantum {
		c.MaxQuantum = 100 * c.MinQuantum
	}
	if c.MinDwell <= 0 {
		c.MinDwell = 20 * c.Interval
	}
	if c.DecisionLog == 0 {
		c.DecisionLog = 512
	}
	if c.DecisionLog < 0 {
		c.DecisionLog = 0
	}
	return c
}

// AIMD factors for the quantum: tighten fast when the tail is blown,
// relax slowly when it is comfortably met.
const (
	quantumDecrease = 0.7
	quantumIncrease = 1.25
)

// Dispersion estimate and policy hysteresis around the §2 crossover at
// CV≈1 (exponential service times): above cvHigh sustained dispersion
// favors SRPT, below cvLow FCFS's no-reordering simplicity wins.
const (
	cvHigh = 1.15
	cvLow  = 0.85
	// cvSmoothing is the EWMA weight of the newest window's CV sample.
	cvSmoothing = 0.3
	// cvMinSamples is the fewest service-time samples a window needs
	// before its CV moves the estimate.
	cvMinSamples = 16
)

// Signals is one control period's sensor readings. Step is a pure
// function of Signals and controller state, so tests drive the loop
// deterministically without clocks or live servers.
type Signals struct {
	// P99 and P999 are rolling tail quantiles over the observation
	// window; zero means no traffic (quantum adaptation holds still).
	P99, P999 time.Duration
	// ShortBurn/LongBurn are SLO burn rates (obs.SLOSnapshot); zero
	// when no SLO is configured.
	ShortBurn, LongBurn float64
	// Rate is the completion rate over the window, req/s.
	Rate float64
	// SvcCount/SvcMeanNS/SvcCV describe the service times completed
	// since the previous reading.
	SvcCount  int64
	SvcMeanNS float64
	SvcCV     float64
	// RegretRatio is the shadow replayer's latest achieved-over-best
	// counterfactual p99 ratio (shadow.Result.RegretRatio): 1 = the
	// current policy is already the best evaluated one, 2 = the tail
	// could have been halved. 0 = no replay signal yet. Recorded in the
	// decision log as scheduling-quality context for every action.
	RegretRatio float64
}

// Status is a point-in-time view of the controller for metrics.
type Status struct {
	Policy         string
	Quantum        time.Duration
	CV             float64 // smoothed estimate
	Switches       uint64  // policy switches performed
	QuantumChanges uint64  // base-quantum adjustments performed
	Ticks          uint64
}

// Controller owns the control loop state. Construct with New, then
// either call Step per period with externally gathered Signals, or Run
// it against a TailTracker and the runtime's service-time sketches.
type Controller struct {
	rt  Runtime
	cfg Config

	mu struct {
		sync.Mutex
		quantum        time.Duration
		cv             float64
		cvPrimed       bool
		ticks          uint64
		lastSwitchTick uint64
		dwellTicks     uint64
		switches       uint64
		quantumChanges uint64
	}

	// log is the per-tick decision ring (decision.go); guarded by c.mu
	// like the rest of the control state.
	log decisionLog
}

// New builds a controller and normalizes the runtime's starting point:
// the base quantum is clamped into [MinQuantum, MaxQuantum] (an
// adaptive server always runs preemptible) and per-class quanta are
// seeded from it.
func New(rt Runtime, cfg Config) *Controller {
	cfg = cfg.withDefaults()
	c := &Controller{rt: rt, cfg: cfg}
	q := rt.Quantum()
	if q <= 0 || q > cfg.MaxQuantum {
		q = cfg.MaxQuantum
	} else if q < cfg.MinQuantum {
		q = cfg.MinQuantum
	}
	c.mu.quantum = q
	c.mu.dwellTicks = uint64((cfg.MinDwell + cfg.Interval - 1) / cfg.Interval)
	if cfg.DecisionLog > 0 {
		c.log.buf = make([]Decision, cfg.DecisionLog)
	}
	rt.SetQuantum(q)
	c.applyClassQuanta(q)
	return c
}

// Status snapshots the controller state for metrics export.
func (c *Controller) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Status{
		Policy:         c.rt.Policy(),
		Quantum:        c.mu.quantum,
		CV:             c.mu.cv,
		Switches:       c.mu.switches,
		QuantumChanges: c.mu.quantumChanges,
		Ticks:          c.mu.ticks,
	}
}

// Step runs one control period: fold the window's CV into the smoothed
// estimate, re-select the policy under hysteresis and dwell, and walk
// the quantum by AIMD against the SLO target. Every tick — acting or
// holding — is recorded in the decision log with the inputs it saw.
func (c *Controller) Step(sig Signals) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mu.ticks++
	prevQuantum := c.mu.quantum
	act := ActHold

	// 1. Dispersion estimate: EWMA over windows with enough samples.
	if sig.SvcCount >= cvMinSamples {
		if !c.mu.cvPrimed {
			c.mu.cv, c.mu.cvPrimed = sig.SvcCV, true
		} else {
			c.mu.cv = cvSmoothing*sig.SvcCV + (1-cvSmoothing)*c.mu.cv
		}
	}

	// 2. Policy selection with hysteresis and dwell. The §2 model says
	// SRPT-like size-aware ordering wins once service-time dispersion
	// passes the exponential crossover (CV ≈ 1); inside the hysteresis
	// band the incumbent stays.
	if c.mu.cvPrimed && c.mu.ticks-c.mu.lastSwitchTick >= c.mu.dwellTicks {
		switch pol := c.rt.Policy(); {
		case pol == PolicyFCFS && c.mu.cv > cvHigh:
			if c.rt.SetPolicy(PolicySRPT) == nil {
				c.mu.switches++
				c.mu.lastSwitchTick = c.mu.ticks
				act = ActSwitchSRPT
			}
		case pol == PolicySRPT && c.mu.cv < cvLow:
			if c.rt.SetPolicy(PolicyFCFS) == nil {
				c.mu.switches++
				c.mu.lastSwitchTick = c.mu.ticks
				act = ActSwitchFCFS
			}
		}
	}

	// 3. Quantum AIMD against the tail target. Only moves on real
	// traffic (P999 > 0): an idle window says nothing about the tail.
	if c.cfg.SLOTarget > 0 && sig.P999 > 0 {
		q := c.mu.quantum
		switch {
		case sig.P999 > c.cfg.SLOTarget || sig.ShortBurn > 1:
			q = time.Duration(float64(q) * quantumDecrease)
			if q < c.cfg.MinQuantum {
				q = c.cfg.MinQuantum
			}
		case sig.P999 < c.cfg.SLOTarget/2 && sig.ShortBurn <= 1:
			q = time.Duration(float64(q) * quantumIncrease)
			if q > c.cfg.MaxQuantum {
				q = c.cfg.MaxQuantum
			}
		}
		if q != c.mu.quantum {
			c.mu.quantum = q
			c.mu.quantumChanges++
			c.rt.SetQuantum(q)
			c.applyClassQuanta(q)
			if act == ActHold { // a policy switch stays the headline action
				if q < prevQuantum {
					act = ActTighten
				} else {
					act = ActRelax
				}
			}
		}
	}

	// 4. Per-class quanta: with a measured source the scales drift with
	// the workload, so re-derive every tick (not just on base moves).
	if c.cfg.ClassSvcNS != nil {
		c.applyClassQuanta(c.mu.quantum)
	}

	c.log.record(Decision{
		Tick:          c.mu.ticks,
		CV:            c.mu.cv,
		WindowCV:      sig.SvcCV,
		SvcCount:      sig.SvcCount,
		P99US:         float64(sig.P99) / float64(time.Microsecond),
		P999US:        float64(sig.P999) / float64(time.Microsecond),
		ShortBurn:     sig.ShortBurn,
		LongBurn:      sig.LongBurn,
		RateRPS:       sig.Rate,
		RegretRatio:   sig.RegretRatio,
		Action:        act,
		Policy:        c.rt.Policy(),
		PrevQuantumUS: float64(prevQuantum) / float64(time.Microsecond),
		QuantumUS:     float64(c.mu.quantum) / float64(time.Microsecond),
	})
}

// Bounds on a measurement-derived class scale: a class measured 100×
// the default still only stretches its quantum 16× — the quantum is a
// preemption grain, not a service-time mirror.
const (
	minClassScale = 1.0 / 16
	maxClassScale = 16.0
)

// applyClassQuanta re-derives per-class quanta from the base. Callers
// hold c.mu (or are in New, before the controller is shared).
func (c *Controller) applyClassQuanta(base time.Duration) {
	for class, scale := range c.classScales() {
		if tier, ok := c.cfg.ClassTiers[class]; ok {
			if tier == 0 && scale > 1 {
				scale = 1 // critical never runs a looser quantum than base
			}
			if tier >= 2 && scale < 1 {
				scale = 1 // sheddable never preempts tighter than base
			}
		}
		q := time.Duration(float64(base) * scale)
		if q < c.cfg.MinQuantum {
			q = c.cfg.MinQuantum
		}
		if q > c.cfg.MaxQuantum {
			q = c.cfg.MaxQuantum
		}
		c.rt.SetClassQuantum(class, q)
	}
}

// classScales resolves the per-class scale table: measured service-time
// quantiles when a ClassSvcNS source is set and has data, the static
// ClassScales entries for classes the measurement can't speak for.
func (c *Controller) classScales() map[int]float64 {
	if c.cfg.ClassSvcNS == nil {
		return c.cfg.ClassScales
	}
	svc := c.cfg.ClassSvcNS()
	ref := 0.0
	if len(svc) > 0 {
		ref = svc[0] // class 0 (default) anchors the base quantum
	}
	if ref <= 0 {
		// No default-class data: anchor on the mean of the classes that
		// do have data, so a workload with only short/long traffic still
		// gets relative scaling.
		var sum float64
		var n int
		for _, v := range svc {
			if v > 0 {
				sum += v
				n++
			}
		}
		if n == 0 {
			return c.cfg.ClassScales // no measurements at all yet
		}
		ref = sum / float64(n)
	}
	scales := make(map[int]float64, len(svc))
	for class, v := range svc {
		if v <= 0 {
			if s, ok := c.cfg.ClassScales[class]; ok {
				scales[class] = s // unmeasured class keeps its static scale
			}
			continue
		}
		s := v / ref
		if s < minClassScale {
			s = minClassScale
		}
		if s > maxClassScale {
			s = maxClassScale
		}
		scales[class] = s
	}
	return scales
}

// Sources are the sensors Run samples each period; any may be nil.
// Tail supplies the rolling tail, rate and burn signals (without it the
// quantum holds still), Service the per-class service-time sketches the
// runtime feeds — each tick reads the mean and CV of the completions
// since the previous tick as a snapshot delta, so nothing on the
// completion path is drained or reset. Regret, when set, supplies the
// shadow replayer's latest regret ratio for the decision log (e.g. a
// closure over shadow.Replayer.Latest).
type Sources struct {
	Tail    *obs.TailTracker
	Service *obs.ClassSketches
	Regret  func() float64
}

// Run drives the control loop on a ticker until stop closes. The
// shortest configured tail window is the observation horizon.
func (c *Controller) Run(src Sources, stop <-chan struct{}) {
	tick := time.NewTicker(c.cfg.Interval)
	defer tick.Stop()
	var prev obs.SketchSnapshot // service sketch at the previous tick
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			c.Step(gather(src, &prev))
		}
	}
}

// gather samples the sensors into one Signals reading, advancing prev
// to the service sketch it read.
func gather(src Sources, prev *obs.SketchSnapshot) Signals {
	var sig Signals
	if src.Service != nil {
		cur := src.Service.ServiceSnapshot()
		if window := cur.Since(*prev); window.Count > 0 {
			sig.SvcCount, sig.SvcMeanNS, sig.SvcCV = int64(window.Count), window.Mean(), window.CV()
		}
		*prev = cur
	}
	if src.Regret != nil {
		sig.RegretRatio = src.Regret()
	}
	if t := src.Tail; t != nil {
		win := t.Windows()[0]
		snap := t.Snapshot(win)
		if snap.Count > 0 {
			sig.P99 = time.Duration(snap.Quantile(0.99))
			sig.P999 = time.Duration(snap.Quantile(0.999))
		}
		sig.Rate = float64(snap.Count) / win.Seconds()
		if slo := t.SLO(); slo != nil {
			burn := slo.Snapshot()
			sig.ShortBurn, sig.LongBurn = burn.ShortBurn, burn.LongBurn
		}
	}
	return sig
}
