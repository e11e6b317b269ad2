// The adaptive-scheduling scenario: a shifting workload swept through
// the same in-process loopback harness under every static scheduler
// configuration and once under the adaptive control plane. The gated
// question is relative — "does adaptation track the best static
// configuration?" — so the metrics are per-phase p99 ratios (adaptive
// over best-static, measured in the same repetition on the same
// machine), which stay comparable across hardware in a way the absolute
// latencies do not. The gate sits at p99 rather than p999:
// with 16k samples per phase the 99.9th percentile is ~16 requests,
// and on small CI hosts those requests measure Go-scheduler
// preemption artifacts, not scheduling policy.
package bench

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"concord/internal/adapt"
	"concord/internal/live"
	"concord/internal/obs"
)

const (
	// Closed-loop in-process clients. Per-phase request counts are
	// fixed: short runs cut repetitions, never phase sizes.
	adaptiveWorkers    = 2
	adaptiveClients    = 4
	adaptiveReqsPerCli = 4000 // per phase
	adaptiveShortSpin  = 5 * time.Microsecond

	// The adaptive run's control loop. The interval and dwell are much
	// tighter than a production deployment's (kvd defaults to 50ms
	// ticks) so the controller converges within a bench phase lasting
	// tens to hundreds of milliseconds — but not so tight that the
	// controller's own sensor reads (quantile scans under the tail
	// tracker's lock, contending with worker completions) shadow the
	// workload. The quantum floor stays well above the short-op
	// service time and the SLO target well above the closed-loop
	// queueing tail: this harness runs saturated, so an aggressive
	// AIMD floor would just preempt 5µs spins into requeue churn
	// without shedding any queueing delay.
	adaptiveTickEvery  = 10 * time.Millisecond
	adaptiveMinDwell   = 40 * time.Millisecond
	adaptiveMinQuantum = 25 * time.Microsecond
	adaptiveMaxQuantum = 200 * time.Microsecond
	adaptiveSLOTarget  = time.Millisecond
)

// adaptivePhaseSpec is one leg of the shifting workload: every
// longEvery-th request spins longSpin, the rest adaptiveShortSpin. The
// mixes are chosen so the service-time CV lands clearly on one side of
// the controller's hysteresis band per phase (§2's CV≈1 crossover).
type adaptivePhaseSpec struct {
	name      string
	longEvery int
	longSpin  time.Duration
}

var adaptivePhases = []adaptivePhaseSpec{
	// 95% 5µs / 5% 10µs: CV ≈ 0.2 — near-uniform, FCFS territory.
	{name: "short", longEvery: 20, longSpin: 10 * time.Microsecond},
	// 90% 5µs / 10% 300µs: CV ≈ 2.6 — heavy-tailed, SRPT territory.
	{name: "scan", longEvery: 10, longSpin: 300 * time.Microsecond},
	// 80% 5µs / 20% 50µs: CV ≈ 1.3 — just above the high-water mark.
	{name: "mixed", longEvery: 5, longSpin: 50 * time.Microsecond},
}

// adaptiveStatics is the static grid the adaptive run competes with:
// both policies at a loose and a tight preemption quantum.
var adaptiveStatics = []struct {
	policy  string
	quantum time.Duration
}{
	{live.PolicyFCFS, 200 * time.Microsecond},
	{live.PolicyFCFS, 50 * time.Microsecond},
	{live.PolicySRPT, 200 * time.Microsecond},
	{live.PolicySRPT, 50 * time.Microsecond},
}

// adaptiveReq is the scenario payload: a spin request that carries its
// own duration as an SRPT hint and an SLO class split by size (long
// spins declare themselves sheddable, the rest standard), exercising
// the per-class sensor path the controller reads from.
type adaptiveReq struct{ spin time.Duration }

func (r adaptiveReq) ServiceHint() time.Duration { return r.spin }

func (r adaptiveReq) SLOClass() live.SLOClass {
	if r.spin >= 100*time.Microsecond {
		return live.ClassSheddable
	}
	return live.ClassStandard
}

// adaptiveSpinHandler executes adaptiveReq payloads.
type adaptiveSpinHandler struct{}

func (adaptiveSpinHandler) Setup()          {}
func (adaptiveSpinHandler) SetupWorker(int) {}
func (adaptiveSpinHandler) Handle(ctx *live.Ctx, payload any) (any, error) {
	r := payload.(adaptiveReq)
	if r.spin > 0 {
		ctx.Spin(r.spin)
	}
	return nil, nil
}

// LiveAdaptiveScenario sweeps the shifting workload under each static
// configuration and under the adaptive control plane and reports, per
// phase, the adaptive p99 over the best static p99. Numerator and
// denominator come from the same repetition on the same machine, so
// host speed divides out and a CI runner can gate the ratio against a
// checked-in baseline. A flapping controller burns drain-and-swap
// quiesces and a dead one never leaves its starting policy: both show
// as a worse ratio.
func LiveAdaptiveScenario() Scenario {
	metrics := map[string]MetricMeta{}
	for _, ph := range adaptivePhases {
		metrics["p99_ratio_"+ph.name] = MetricMeta{Unit: "x", Better: "lower"}
	}
	return Scenario{
		Name: "live_adaptive",
		Describe: fmt.Sprintf("in-process loopback, %d workers, shifting phases short→scan→mixed (%d clients × %d requests each), %d static configs vs adaptive controller (tick %v)",
			adaptiveWorkers, adaptiveClients, adaptiveReqsPerCli, len(adaptiveStatics), adaptiveTickEvery),
		Metrics: metrics,
		Run:     runLiveAdaptive,
	}
}

func runLiveAdaptive() (map[string]float64, error) {
	best := make([]float64, len(adaptivePhases))
	for _, sc := range adaptiveStatics {
		p99s, _, err := runAdaptiveSweep(sc.policy, sc.quantum, false)
		if err != nil {
			return nil, err
		}
		for i, v := range p99s {
			if best[i] == 0 || v < best[i] {
				best[i] = v
			}
		}
	}
	adaptiveP99s, switches, err := runAdaptiveSweep(live.PolicyFCFS, adaptiveMaxQuantum, true)
	if err != nil {
		return nil, err
	}
	if switches == 0 {
		// The scan phase's CV sits far above the hysteresis band for
		// dozens of control ticks; a controller that never reacts to
		// it is broken, not unlucky.
		return nil, fmt.Errorf("bench: live_adaptive controller never switched policy across the phase sweep")
	}

	out := make(map[string]float64, len(adaptivePhases))
	for i, ph := range adaptivePhases {
		out["p99_ratio_"+ph.name] = adaptiveP99s[i] / best[i]
	}
	return out, nil
}

// runAdaptiveSweep runs one server through every phase back to back and
// returns the per-phase p99 in µs. With adaptive set, the server runs
// under a live controller (policy switching + quantum AIMD) fed by the
// tail tracker and the service-time sketch, and the controller's switch count is
// returned too.
func runAdaptiveSweep(policy string, quantum time.Duration, adaptive bool) ([]float64, uint64, error) {
	opts := live.Options{
		Workers:    adaptiveWorkers,
		Policy:     policy,
		Quantum:    quantum,
		PinThreads: false,
	}
	if adaptive {
		slo := obs.NewSLOTracker(obs.SLOConfig{Target: adaptiveSLOTarget, Objective: 0.999})
		// A short horizon so the quantum loop reacts to the current
		// phase, not the previous one.
		opts.Tail = obs.NewTailTracker([]time.Duration{100 * time.Millisecond}, slo)
		opts.Sketches = obs.NewClassSketches(1)
	}
	s := live.New(adaptiveSpinHandler{}, opts)
	s.Start()
	defer s.Stop()

	var ctrl *adapt.Controller
	if adaptive {
		ctrl = adapt.New(s, adapt.Config{
			Interval:   adaptiveTickEvery,
			MinQuantum: adaptiveMinQuantum,
			MaxQuantum: adaptiveMaxQuantum,
			SLOTarget:  adaptiveSLOTarget,
			MinDwell:   adaptiveMinDwell,
		})
		stop := make(chan struct{})
		defer close(stop)
		go ctrl.Run(adapt.Sources{Tail: opts.Tail, Service: opts.Sketches}, stop)
	}

	p99s := make([]float64, 0, len(adaptivePhases))
	for _, ph := range adaptivePhases {
		perClient := make([][]float64, adaptiveClients)
		var failed atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < adaptiveClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				lats := make([]float64, 0, adaptiveReqsPerCli)
				for i := 0; i < adaptiveReqsPerCli; i++ {
					spin := adaptiveShortSpin
					if i%ph.longEvery == 0 {
						spin = ph.longSpin
					}
					resp := s.Do(adaptiveReq{spin: spin})
					if resp.Err != nil {
						failed.Add(1)
						continue
					}
					lats = append(lats, float64(resp.Latency)/float64(time.Microsecond))
				}
				perClient[c] = lats
			}(c)
		}
		wg.Wait()
		if n := failed.Load(); n > 0 {
			return nil, 0, fmt.Errorf("bench: live_adaptive phase %s had %d failed requests", ph.name, n)
		}
		var lats []float64
		for _, l := range perClient {
			lats = append(lats, l...)
		}
		if len(lats) != adaptiveClients*adaptiveReqsPerCli {
			return nil, 0, fmt.Errorf("bench: live_adaptive phase %s completed %d of %d", ph.name, len(lats), adaptiveClients*adaptiveReqsPerCli)
		}
		sort.Float64s(lats)
		p99s = append(p99s, quantileSorted(lats, 0.99))
	}

	var switches uint64
	if ctrl != nil {
		switches = ctrl.Status().Switches
	}
	return p99s, switches, nil
}
