package shadow

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"

	"concord/internal/dist"
	"concord/internal/sim"
)

// synthWindow builds a deterministic capture window: lognormal service
// times under Poisson arrivals, every record hinted at hintFactor × its
// true size (hintFactor 0 strips hints), classes alternating
// short/long/default.
func synthWindow(n int, seed uint64, ratePerSec, hintFactor float64) CaptureWindow {
	rng := sim.NewRNG(seed)
	svc := dist.Lognormal{Mu: math.Log(20), Sigma: 1.5}
	arr := dist.NewPoisson(ratePerSec)
	w := CaptureWindow{Start: time.Unix(0, 0)}
	var at float64
	for i := 0; i < n; i++ {
		at += arr.NextGapUS(rng)
		s := svc.Sample(rng)
		svcNS := int64(s.ServiceUS * 1e3)
		if svcNS < 1 {
			svcNS = 1
		}
		rec := CaptureRec{
			ArrivalNS: int64(at * 1e3),
			Class:     uint8(i % 3),
			ServiceNS: svcNS,
			LatencyNS: svcNS * 4, // stand-in for an achieved sojourn
		}
		if hintFactor > 0 {
			rec.HintNS = int64(float64(svcNS) * hintFactor)
		}
		w.Recs = append(w.Recs, rec)
	}
	w.Span = time.Duration(at*1e3) * time.Nanosecond
	w.Offered = uint64(n)
	return w
}

// TestReplayDeterministic: the same window and config replay to a
// bit-identical Result — the property that makes regret gauges
// comparable across scrapes and the dump reproducible.
func TestReplayDeterministic(t *testing.T) {
	w := synthWindow(1000, 11, 20000, 1)
	cfg := Config{Workers: 2, QuantumUS: 100, Seed: 7}
	a, ok := ReplayWindow(w, cfg)
	b, ok2 := ReplayWindow(w, cfg)
	if !ok || !ok2 {
		t.Fatal("replay skipped a 1000-record window")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("replay not deterministic:\n%+v\nvs\n%+v", a, b)
	}
	if len(a.Policies) != 3 || a.Best == "" || a.BestRatio <= 0 {
		t.Fatalf("result incomplete: %+v", a)
	}
	for i, name := range Policies() {
		if a.Policies[i].Policy != name {
			t.Fatalf("policy %d = %q, want %q", i, a.Policies[i].Policy, name)
		}
	}
}

// TestReplayExactHintsMatchOracle: with every hint exact, the
// hinted-SRPT counterfactual must be indistinguishable from the oracle
// — same completions, p99, and mean.
func TestReplayExactHintsMatchOracle(t *testing.T) {
	w := synthWindow(2000, 3, 20000, 1)
	res, ok := ReplayWindow(w, Config{Workers: 2, QuantumUS: 100})
	if !ok {
		t.Fatal("replay skipped")
	}
	var hint, oracle, fcfs PolicyResult
	for _, p := range res.Policies {
		switch p.Policy {
		case PolicySRPTHint:
			hint = p
		case PolicySRPTOracle:
			oracle = p
		case PolicyFCFS:
			fcfs = p
		}
	}
	if hint.Saturated || oracle.Saturated || fcfs.Saturated {
		t.Fatalf("saturated counterfactual: %+v", res.Policies)
	}
	if hint.P99US != oracle.P99US || hint.MeanUS != oracle.MeanUS || hint.Completed != oracle.Completed {
		t.Fatalf("exact hints diverged from oracle:\nhint   %+v\noracle %+v", hint, oracle)
	}
	// SRPT minimizes mean sojourn; with this heavy-tailed trace it must
	// beat FCFS on the mean.
	if oracle.MeanUS >= fcfs.MeanUS {
		t.Fatalf("oracle SRPT mean %.1fus not better than FCFS %.1fus", oracle.MeanUS, fcfs.MeanUS)
	}
}

// TestReplayNoisyHintsCostTail: ×10 multiplicative hint noise must not
// beat the oracle. A 4 000-record window (seed 17) also pins its
// replayed p99s exactly: FCFS and the oracle, hinted SRPT with exact
// hints (identical to the oracle), and with independent log-uniform
// ×[0.1, 10] noise, all behind the work-conserving dispatcher that live
// runs. Replay is a function of the window and the config,
// so these literals hold on every machine; never edit one to match.
func TestReplayNoisyHintsCostTail(t *testing.T) {
	alternate := synthWindow(2000, 3, 20000, 1)
	// Perturb hints deterministically: alternate ×10 over- and ×0.1
	// under-estimates (rank-scrambling, the damaging kind of noise).
	for i := range alternate.Recs {
		if i%2 == 0 {
			alternate.Recs[i].HintNS *= 10
		} else {
			alternate.Recs[i].HintNS /= 10
		}
	}
	// Each hint ×10^(2u−1), u uniform from a stream of its own.
	logUniform := synthWindow(4000, 17, 20000, 1)
	noise := sim.NewRNG(18)
	for i := range logUniform.Recs {
		r := &logUniform.Recs[i]
		r.HintNS = max(int64(float64(r.ServiceNS)*math.Pow(10, 2*noise.Float64()-1)), 1)
	}
	for _, tc := range []struct {
		name string
		w    CaptureWindow
		cfg  Config
		// Pinned p99s in µs; all zero for a row that pins none.
		fcfs, oracle, hint float64
	}{
		{"alternate-x10", alternate, Config{Workers: 2, QuantumUS: 100}, 0, 0, 0},
		{"exact", synthWindow(4000, 17, 20000, 1), Config{Workers: 2, QuantumUS: 100, Seed: 1},
			893.344, 868.915, 868.915},
		{"log-uniform-x10", logUniform, Config{Workers: 2, QuantumUS: 100, Seed: 1},
			893.344, 868.915, 915.114},
	} {
		res, ok := ReplayWindow(tc.w, tc.cfg)
		if !ok {
			t.Fatalf("%s: replay skipped", tc.name)
		}
		noisy, oracle := res.PolicyRatio(PolicySRPTHint), res.PolicyRatio(PolicySRPTOracle)
		if noisy <= 0 || oracle <= 0 {
			t.Fatalf("%s: missing ratios: %+v", tc.name, res.Policies)
		}
		if oracle > noisy {
			t.Fatalf("%s: oracle ratio %.3f worse than noisy hints %.3f", tc.name, oracle, noisy)
		}
		if tc.fcfs == 0 {
			continue
		}
		want := map[string]float64{PolicyFCFS: tc.fcfs, PolicySRPTOracle: tc.oracle, PolicySRPTHint: tc.hint}
		for _, p := range res.Policies {
			if p.Saturated || p.P99US != want[p.Policy] {
				t.Errorf("%s: %s p99 %v µs (saturated %v), want %v", tc.name, p.Policy, p.P99US, p.Saturated, want[p.Policy])
			}
		}
	}
}

// TestReplayerLifecycle: skip accounting on thin windows, scoring on
// real ones, history/latest/dump plumbing.
func TestReplayerLifecycle(t *testing.T) {
	ring := NewCaptureRing(4096, 1)
	r := NewReplayer(ring, Config{Workers: 2, QuantumUS: 100, MinRecs: 16}, time.Hour)

	if _, ok := r.ReplayOnce(); ok {
		t.Fatal("empty ring scored a window")
	}
	if w, s := r.Counts(); w != 0 || s != 1 {
		t.Fatalf("counts after empty drain: %d/%d, want 0/1", w, s)
	}
	if r.Latest() != nil {
		t.Fatal("Latest non-nil before any scored window")
	}

	feedRing(ring, synthWindow(500, 21, 20000, 1))
	res, ok := r.ReplayOnce()
	if !ok {
		t.Fatal("500-record window skipped")
	}
	if got := r.Latest(); got == nil || got.AchievedP99US != res.AchievedP99US {
		t.Fatalf("Latest = %+v, want the scored window", got)
	}
	if hist := r.Results(0); len(hist) != 1 {
		t.Fatalf("history len %d, want 1", len(hist))
	}
	if res.String() == "" || res.RegretRatio() <= 0 {
		t.Fatalf("summary incomplete: %q regret %.2f", res.String(), res.RegretRatio())
	}

	var buf bytes.Buffer
	if err := r.WriteDump(&buf); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Schema   int      `json:"schema"`
		Policies []string `json:"policies"`
		Windows  uint64   `json:"windows"`
		Skipped  uint64   `json:"skipped"`
		Results  []Result `json:"results"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("dump not valid JSON: %v\n%s", err, buf.String())
	}
	if dump.Schema != 1 || dump.Windows != 1 || dump.Skipped != 1 || len(dump.Results) != 1 || len(dump.Policies) != 3 {
		t.Fatalf("dump fields: %+v", dump)
	}
	r.Stop() // never Started: must not hang
}

// feedRing loads a synthetic window's records into a live ring through
// the public-ish surface the observer uses (rate 1 keeps everything).
func feedRing(ring *CaptureRing, w CaptureWindow) {
	for _, rec := range w.Recs {
		ring.Offer(rec)
	}
}
