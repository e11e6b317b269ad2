// The regret scenario: how much tail does hinted SRPT leave on the
// table versus an oracle when client hints are wrong by up to an order
// of magnitude? It runs entirely inside the counterfactual replayer
// (internal/shadow) on a synthesized capture window — no wall clock, no
// live server — so every metric is deterministic: the same seeds replay
// to bit-identical latencies on every machine, and the checked-in
// baseline gates the hint-vs-oracle spread exactly.
package bench

import (
	"fmt"
	"math"
	"time"

	"concord/internal/dist"
	"concord/internal/live"
	"concord/internal/shadow"
	"concord/internal/sim"
)

const (
	// One capture window: lognormal service (mean ≈62µs, heavy-tailed)
	// under Poisson arrivals at a load the 2-worker counterfactuals can
	// carry without saturating, hinted and replayed under each policy.
	regretRecs      = 4000
	regretSeed      = 17
	regretRatePerS  = 20000
	regretWorkers   = 2
	regretQuantumUS = 100
	// Noise grid: per-record multiplicative hint error, log-uniform in
	// [1/regretNoiseSpan, regretNoiseSpan].
	regretNoiseSpan = 10.0
)

// regretGrids are the hint-quality points swept, keyed by metric suffix.
var regretGrids = []struct {
	name  string
	noisy bool
}{
	{name: "exact", noisy: false},
	{name: "noisy_x10", noisy: true},
}

// LiveRegretScenario replays one synthesized capture window through the
// shadow counterfactuals at each hint-quality point. FCFS and oracle
// SRPT are hint-blind, so they are reported once; the hinted-SRPT p99
// and its ratio over the oracle carry the per-grid story. The
// hint_over_oracle ratios are the headline: exact hints must replay
// identically to the oracle (ratio 1.0), and ×10 log-uniform noise must
// never beat it.
func LiveRegretScenario() Scenario {
	metrics := map[string]MetricMeta{
		"p99_fcfs_us":        {Unit: "us", Better: "lower"},
		"p99_srpt_oracle_us": {Unit: "us", Better: "lower"},
	}
	for _, g := range regretGrids {
		metrics["p99_srpt_hint_us_"+g.name] = MetricMeta{Unit: "us", Better: "lower"}
		metrics["hint_over_oracle_"+g.name] = MetricMeta{Unit: "x", Better: "lower"}
	}
	return Scenario{
		Name: "live_regret",
		Describe: fmt.Sprintf("shadow replay of a synthetic %d-record window (lognormal service, Poisson %d/s, seed %d), %d workers quantum %dus, hint grids exact vs log-uniform x%.0f noise",
			regretRecs, regretRatePerS, regretSeed, regretWorkers, regretQuantumUS, regretNoiseSpan),
		Metrics: metrics,
		Run:     runLiveRegret,
	}
}

func runLiveRegret() (map[string]float64, error) {
	cfg := shadow.Config{Workers: regretWorkers, QuantumUS: regretQuantumUS, Seed: 1}
	out := make(map[string]float64, 2+2*len(regretGrids))
	for _, g := range regretGrids {
		w := regretWindow(g.noisy)
		res, ok := shadow.ReplayWindow(w, cfg)
		if !ok {
			return nil, fmt.Errorf("bench: live_regret replay skipped a %d-record window", regretRecs)
		}
		var fcfs, hint, oracle *shadow.PolicyResult
		for i := range res.Policies {
			switch p := &res.Policies[i]; p.Policy {
			case shadow.PolicyFCFS:
				fcfs = p
			case shadow.PolicySRPTHint:
				hint = p
			case shadow.PolicySRPTOracle:
				oracle = p
			}
		}
		if fcfs == nil || hint == nil || oracle == nil ||
			fcfs.Saturated || hint.Saturated || oracle.Saturated {
			return nil, fmt.Errorf("bench: live_regret grid %s saturated or incomplete: %+v", g.name, res.Policies)
		}
		if oracle.P99US > hint.P99US {
			// The oracle never does worse than noisy hints; a violation
			// means the hinted-SRPT key construction regressed.
			return nil, fmt.Errorf("bench: live_regret grid %s: oracle p99 %.1fus above hinted %.1fus",
				g.name, oracle.P99US, hint.P99US)
		}
		out["p99_srpt_hint_us_"+g.name] = hint.P99US
		out["hint_over_oracle_"+g.name] = hint.P99US / oracle.P99US
		// Hint-blind policies see the same trace on every grid.
		out["p99_fcfs_us"] = fcfs.P99US
		out["p99_srpt_oracle_us"] = oracle.P99US
	}
	return out, nil
}

// regretWindow synthesizes the capture window: deterministic lognormal
// service under Poisson arrivals, every record hinted at its true size
// and, on the noisy grid, perturbed by an independent log-uniform
// multiplier in [1/span, span] — the rank-scrambling error mode that
// actually costs SRPT tail.
func regretWindow(noisy bool) live.CaptureWindow {
	rng := sim.NewRNG(regretSeed)
	noiseRNG := sim.NewRNG(regretSeed + 1)
	svc := dist.Lognormal{Mu: math.Log(20), Sigma: 1.5}
	arr := dist.NewPoisson(regretRatePerS)
	w := live.CaptureWindow{Start: time.Unix(0, 0), Offered: regretRecs}
	var at float64
	for i := 0; i < regretRecs; i++ {
		at += arr.NextGapUS(rng)
		svcNS := int64(svc.Sample(rng).ServiceUS * 1e3)
		if svcNS < 1 {
			svcNS = 1
		}
		hintNS := svcNS
		if noisy {
			mult := math.Pow(regretNoiseSpan, 2*noiseRNG.Float64()-1)
			hintNS = int64(float64(svcNS) * mult)
			if hintNS < 1 {
				hintNS = 1
			}
		}
		w.Recs = append(w.Recs, live.CaptureRec{
			ArrivalNS: int64(at * 1e3),
			Class:     uint8(i % live.NumClasses),
			HintNS:    hintNS,
			ServiceNS: svcNS,
			LatencyNS: svcNS * 4, // synthetic achieved sojourn; ratios key off counterfactuals
		})
	}
	w.Span = time.Duration(at*1e3) * time.Nanosecond
	return w
}
