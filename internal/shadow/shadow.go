// Package shadow answers "what would the tail have been under a
// different scheduling policy?" without running one. It takes sampled
// capture windows of the live runtime's completions (CaptureRing, fed
// by whoever observes them) — arrival spacing, class, service hint,
// measured service time — and replays
// them through the deterministic simulator (internal/server) under
// counterfactual configurations:
//
//	fcfs        — hint-blind FIFO central queue
//	srpt_hint   — SRPT keyed on the hints requests actually submitted
//	srpt_oracle — SRPT keyed on the true measured service times
//
// The gap between the achieved p99 and the best counterfactual p99 is
// the scheduler's *regret*: how much tail latency the current policy
// (and the quality of the client hints) left on the table. Because the
// simulator models the paper's cost parameters rather than this
// machine's, the counterfactual numbers are approximations of what a
// policy change would buy — the per-policy *ordering* and the
// hint-vs-oracle spread are the trustworthy signals, not the absolute
// microseconds.
package shadow

import (
	"fmt"
	"math"
	"sort"
	"time"

	"concord/internal/cost"
	"concord/internal/dist"
	"concord/internal/live"
	"concord/internal/server"
	"concord/internal/sim"
)

// Canonical counterfactual policy names, in report order.
const (
	PolicyFCFS       = "fcfs"
	PolicySRPTHint   = "srpt_hint"
	PolicySRPTOracle = "srpt_oracle"
)

// Policies lists the counterfactuals every replay evaluates, in order.
func Policies() []string {
	return []string{PolicyFCFS, PolicySRPTHint, PolicySRPTOracle}
}

// Config parameterizes the counterfactual servers. The zero value is
// usable; unset fields take the defaults below. Each is server.Concord:
// JBSQ behind the work-conserving dispatcher, as live runs it.
type Config struct {
	// Workers and QuantumUS describe the simulated server; mirror the
	// live server's shape so counterfactuals answer "same machine,
	// different policy".
	Workers   int     // default 2
	QuantumUS float64 // default 100
	// QueueBound is the per-worker JBSQ depth (default 2).
	QueueBound int
	// Seed drives the simulator's RNG. Replay consumes no random
	// service times or gaps — both come from the trace — so the seed
	// only perturbs internal tie-breaking; any fixed value gives
	// bit-identical replays.
	Seed uint64
	// MinRecs is the smallest window worth replaying (default 16):
	// below it, p99 of the sample is noise.
	MinRecs int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QuantumUS <= 0 {
		c.QuantumUS = 100
	}
	if c.QueueBound <= 0 {
		c.QueueBound = 2
	}
	if c.MinRecs <= 0 {
		c.MinRecs = 16
	}
	return c
}

// PolicyResult is one counterfactual's outcome on a window.
type PolicyResult struct {
	Policy string `json:"policy"`
	// P99US / MeanUS summarize simulated sojourn times. Zero when
	// Saturated — JSON has no Inf, and a saturated counterfactual has
	// no meaningful tail.
	P99US  float64 `json:"p99_us"`
	MeanUS float64 `json:"mean_us"`
	// Ratio is counterfactual p99 over achieved p99: < 1 means this
	// policy would have beaten the configuration that produced the
	// window. Zero when Saturated.
	Ratio     float64 `json:"ratio"`
	Completed int     `json:"completed"`
	Saturated bool    `json:"saturated,omitempty"`
}

// Result is one replayed window: what happened, and what could have.
type Result struct {
	Start   time.Time `json:"start"`
	SpanMS  float64   `json:"span_ms"`
	Recs    int       `json:"recs"`
	Offered uint64    `json:"offered"`
	// AchievedP99US is the p99 of the *measured* latencies in the
	// window — the reality the counterfactuals are scored against.
	AchievedP99US float64        `json:"achieved_p99_us"`
	Policies      []PolicyResult `json:"policies"`
	// Best is the non-saturated policy with the lowest p99; BestRatio
	// its Ratio. Empty/zero when every counterfactual saturated.
	Best      string  `json:"best"`
	BestRatio float64 `json:"best_ratio"`
}

// RegretRatio is achieved p99 over the best counterfactual p99: 1 means
// the scheduler (plus its hints) is already optimal among the evaluated
// policies, 2 means the tail could have been halved. 0 = no signal.
func (r *Result) RegretRatio() float64 {
	if r == nil || r.BestRatio <= 0 {
		return 0
	}
	return 1 / r.BestRatio
}

// PolicyRatio returns the named policy's Ratio, 0 when absent/saturated.
func (r *Result) PolicyRatio(policy string) float64 {
	if r == nil {
		return 0
	}
	for _, p := range r.Policies {
		if p.Policy == policy {
			return p.Ratio
		}
	}
	return 0
}

// String renders the one-line form served by the kvd SHADOW verb.
func (r *Result) String() string {
	s := fmt.Sprintf("window %dms recs %d achieved_p99 %.0fus",
		int64(r.SpanMS), r.Recs, r.AchievedP99US)
	for _, p := range r.Policies {
		if p.Saturated {
			s += fmt.Sprintf(" %s saturated", p.Policy)
			continue
		}
		s += fmt.Sprintf(" %s %.0fus (x%.2f)", p.Policy, p.P99US, p.Ratio)
	}
	if r.Best != "" {
		s += fmt.Sprintf(" best %s regret x%.2f", r.Best, r.RegretRatio())
	}
	return s
}

// ---------- trace replay through the simulator ----------

// traceDist replays captured service times (and hints) in arrival
// order. The Machine calls Dist.Sample exactly once per admitted
// request, in arrival order, so a cursor suffices; past the end it
// clamps to the last record (defensive — Requests == len(recs) makes
// that unreachable).
type traceDist struct {
	recs []CaptureRec
	mean float64
	i    int
}

func newTraceDist(recs []CaptureRec) *traceDist {
	var sum float64
	for _, r := range recs {
		sum += float64(r.ServiceNS)
	}
	return &traceDist{recs: recs, mean: sum / float64(len(recs)) / 1e3}
}

func (d *traceDist) Name() string  { return "trace-replay" }
func (d *traceDist) Mean() float64 { return d.mean }
func (d *traceDist) Sample(_ *sim.RNG) dist.Sample {
	r := d.recs[d.i]
	if d.i < len(d.recs)-1 {
		d.i++
	}
	return dist.Sample{
		Class:     className(r.Class),
		ServiceUS: float64(r.ServiceNS) / 1e3,
		HintUS:    float64(r.HintNS) / 1e3,
	}
}

func className(c uint8) string {
	return live.SLOClass(c).String()
}

// traceArrival replays captured inter-arrival gaps. The Machine calls
// NextGapUS once before each arrival (including the first), so gap 0 is
// 0 — the trace's absolute offset is irrelevant, only spacing matters.
type traceArrival struct {
	gaps []float64
	i    int
}

func newTraceArrival(recs []CaptureRec) *traceArrival {
	gaps := make([]float64, len(recs))
	for i := 1; i < len(recs); i++ {
		gaps[i] = float64(recs[i].ArrivalNS-recs[i-1].ArrivalNS) / 1e3
	}
	return &traceArrival{gaps: gaps}
}

func (a *traceArrival) Name() string { return "trace-replay" }
func (a *traceArrival) NextGapUS(_ *sim.RNG) float64 {
	g := a.gaps[a.i]
	if a.i < len(a.gaps)-1 {
		a.i++
	}
	return g
}

// ReplayWindow replays one capture window under every counterfactual
// policy. It is pure and deterministic: the same window and config
// produce a bit-identical Result. ok is false when the window is too
// small to score.
func ReplayWindow(w CaptureWindow, cfg Config) (Result, bool) {
	cfg = cfg.withDefaults()
	if len(w.Recs) < cfg.MinRecs || len(w.Recs) < 2 {
		return Result{}, false
	}
	res := Result{
		Start:         w.Start,
		SpanMS:        float64(w.Span) / float64(time.Millisecond),
		Recs:          len(w.Recs),
		Offered:       w.Offered,
		AchievedP99US: achievedP99US(w.Recs),
	}
	bestP99 := math.Inf(1)
	for _, policy := range Policies() {
		pr := replayPolicy(w.Recs, cfg, policy)
		if !pr.Saturated && res.AchievedP99US > 0 {
			pr.Ratio = pr.P99US / res.AchievedP99US
			if pr.P99US < bestP99 {
				bestP99 = pr.P99US
				res.Best = pr.Policy
				res.BestRatio = pr.Ratio
			}
		}
		res.Policies = append(res.Policies, pr)
	}
	return res, true
}

func replayPolicy(recs []CaptureRec, cfg Config, policy string) PolicyResult {
	sc := server.Concord(cost.Default(), cfg.Workers, cfg.QuantumUS)
	sc.QueueBound = cfg.QueueBound
	switch policy {
	case PolicyFCFS:
		sc.SRPT = false
	case PolicySRPTHint:
		sc.SRPT, sc.HintedSRPT = true, true
	case PolicySRPTOracle:
		sc.SRPT = true
	}
	wl := server.Workload{Dist: newTraceDist(recs), Arrival: newTraceArrival(recs)}
	r := server.New(sc, wl, server.RunParams{
		Requests:   len(recs),
		WarmupFrac: 1e-9, // withDefaults coerces 0 to 0.1; replay keeps every sample
		Seed:       cfg.Seed,
		// A drained trace replays in roughly its own span; captured
		// windows span seconds, so give the drain the same order of
		// slack rather than the default 100ms.
		DrainSlackUS: 10e6,
		ExactSamples: true,
	}).Run()
	pr := PolicyResult{Policy: policy, Completed: r.Completed, Saturated: r.Saturated}
	if r.Saturated {
		return pr
	}
	soj := make([]float64, 0, len(r.Collector.Samples()))
	var sum float64
	for _, s := range r.Collector.Samples() {
		soj = append(soj, s.SojournUS)
		sum += s.SojournUS
	}
	if len(soj) == 0 {
		pr.Saturated = true
		return pr
	}
	sort.Float64s(soj)
	pr.P99US = quantileSorted(soj, 0.99)
	pr.MeanUS = sum / float64(len(soj))
	return pr
}

func achievedP99US(recs []CaptureRec) float64 {
	lat := make([]float64, len(recs))
	for i, r := range recs {
		lat[i] = float64(r.LatencyNS) / 1e3
	}
	sort.Float64s(lat)
	return quantileSorted(lat, 0.99)
}

// quantileSorted is the exact empirical quantile (nearest-rank) of a
// sorted slice — the same definition the collector's percentiles use.
func quantileSorted(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}
