package adapt

import (
	"testing"
	"time"

	"concord/internal/obs"
)

// fakeRuntime records actuator calls; Step is deterministic against it.
type fakeRuntime struct {
	quantum time.Duration
	class   map[int]time.Duration
	policy  string
}

func newFakeRuntime(q time.Duration, policy string) *fakeRuntime {
	return &fakeRuntime{quantum: q, policy: policy, class: map[int]time.Duration{}}
}

func (f *fakeRuntime) SetQuantum(d time.Duration)             { f.quantum = d }
func (f *fakeRuntime) Quantum() time.Duration                 { return f.quantum }
func (f *fakeRuntime) SetClassQuantum(c int, d time.Duration) { f.class[c] = d }
func (f *fakeRuntime) SetPolicy(name string) error            { f.policy = name; return nil }
func (f *fakeRuntime) Policy() string                         { return f.policy }

// TestGatherServiceWindow: each gather reads the service times completed
// since the previous one — count, exact mean, midpoint CV — from the
// runtime's cumulative class sketches, without draining them.
func TestGatherServiceWindow(t *testing.T) {
	sk := obs.NewClassSketches(2)
	src := Sources{Service: sk}
	var prev obs.SketchSnapshot

	for i := 0; i < 100; i++ {
		sk.Observe(i%2, 10_000, 0) // constant 10µs, spread over both classes
	}
	sig := gather(src, &prev)
	if sig.SvcCount != 100 {
		t.Fatalf("count = %d, want 100", sig.SvcCount)
	}
	if sig.SvcMeanNS != 10_000 {
		t.Fatalf("mean = %.0fns, want 10000", sig.SvcMeanNS)
	}
	if sig.SvcCV != 0 {
		t.Fatalf("constant samples CV = %.3f, want 0", sig.SvcCV)
	}

	// Nothing completed since: the next window is empty.
	if sig := gather(src, &prev); sig.SvcCount != 0 || sig.SvcCV != 0 {
		t.Fatalf("idle window read %d samples, CV %.3f", sig.SvcCount, sig.SvcCV)
	}

	// 95% short / 5% very long — the dispersion SRPT exists for. The
	// constant samples of the first window must not dilute it.
	for i := 0; i < 100; i++ {
		if i%20 == 0 {
			sk.Observe(0, 1_000_000, 0) // 1ms scan
		} else {
			sk.Observe(0, 5_000, 0) // 5µs point op
		}
	}
	if sig := gather(src, &prev); sig.SvcCount != 100 || sig.SvcCV < 1.5 {
		t.Fatalf("bimodal window: count %d CV %.3f, want 100 samples at CV > 1.5", sig.SvcCount, sig.SvcCV)
	}
	// The sketches themselves were never reset.
	if n := sk.ServiceSnapshot().Count; n != 200 {
		t.Fatalf("cumulative sketch count = %d, want 200", n)
	}
}

// TestGatherTail: the tail signals are the shortest window's p99/p99.9
// as durations plus its completion rate.
func TestGatherTail(t *testing.T) {
	tail := obs.NewTailTracker([]time.Duration{time.Second}, nil)
	var prev obs.SketchSnapshot
	if sig := gather(Sources{Tail: tail}, &prev); sig.P999 != 0 || sig.Rate != 0 {
		t.Fatalf("idle tail read p99.9 %v rate %v, want zeros", sig.P999, sig.Rate)
	}
	for i := 0; i < 50; i++ {
		tail.Observe(200*time.Microsecond, true)
	}
	sig := gather(Sources{Tail: tail}, &prev)
	if sig.P999 < 190*time.Microsecond || sig.P999 > 210*time.Microsecond || sig.P99 != sig.P999 {
		t.Fatalf("p99 %v / p99.9 %v, want ≈200µs", sig.P99, sig.P999)
	}
	if sig.Rate != 50 {
		t.Fatalf("rate = %v req/s, want 50 over the 1s window", sig.Rate)
	}
}

func testConfig() Config {
	return Config{
		Interval:   50 * time.Millisecond,
		MinQuantum: 5 * time.Microsecond,
		MaxQuantum: 500 * time.Microsecond,
		SLOTarget:  200 * time.Microsecond,
		MinDwell:   150 * time.Millisecond, // 3 ticks
	}
}

// cvSignals is a window with enough samples to move the CV estimate.
func cvSignals(cv float64) Signals {
	return Signals{SvcCount: 64, SvcMeanNS: 10_000, SvcCV: cv}
}

func TestControllerPolicyHysteresisAndDwell(t *testing.T) {
	rt := newFakeRuntime(50*time.Microsecond, PolicyFCFS)
	c := New(rt, testConfig())

	// High dispersion, but dwell not yet elapsed: ticks 1 and 2 hold.
	c.Step(cvSignals(2.0))
	c.Step(cvSignals(2.0))
	if rt.policy != PolicyFCFS {
		t.Fatalf("switched before MinDwell: policy %q at tick 2", rt.policy)
	}
	// Tick 3: dwell satisfied, smoothed CV well above cvHigh → SRPT.
	c.Step(cvSignals(2.0))
	if rt.policy != PolicySRPT {
		t.Fatalf("policy %q after sustained high CV, want srpt", rt.policy)
	}
	if got := c.Status().Switches; got != 1 {
		t.Fatalf("switches = %d, want 1", got)
	}

	// In-band CV (between cvLow and cvHigh): the incumbent stays, no
	// matter how many ticks pass.
	for i := 0; i < 10; i++ {
		c.Step(cvSignals(1.0))
	}
	if rt.policy != PolicySRPT {
		t.Fatalf("in-band CV flipped policy to %q", rt.policy)
	}

	// Sustained low CV: back to FCFS once the EWMA crosses cvLow.
	for i := 0; i < 20; i++ {
		c.Step(cvSignals(0.1))
	}
	if rt.policy != PolicyFCFS {
		t.Fatalf("policy %q after sustained low CV, want fcfs", rt.policy)
	}
	if got := c.Status().Switches; got != 2 {
		t.Fatalf("switches = %d, want 2", got)
	}

	// Windows with too few samples never move the estimate: starve the
	// estimator and the policy must hold even at wild CV readings.
	before := c.Status().CV
	c.Step(Signals{SvcCount: 3, SvcCV: 50})
	if got := c.Status().CV; got != before {
		t.Fatalf("under-sampled window moved CV %.3f → %.3f", before, got)
	}
}

func TestControllerQuantumAIMD(t *testing.T) {
	rt := newFakeRuntime(100*time.Microsecond, PolicyFCFS)
	cfg := testConfig()
	c := New(rt, cfg)

	// Tail blown: quantum tightens multiplicatively down to the floor.
	for i := 0; i < 50; i++ {
		c.Step(Signals{P999: 300 * time.Microsecond})
	}
	if rt.quantum != cfg.MinQuantum {
		t.Fatalf("quantum = %v after sustained tail misses, want floor %v", rt.quantum, cfg.MinQuantum)
	}

	// Comfortable tail: relaxes back up to the ceiling.
	for i := 0; i < 50; i++ {
		c.Step(Signals{P999: 50 * time.Microsecond})
	}
	if rt.quantum != cfg.MaxQuantum {
		t.Fatalf("quantum = %v after sustained headroom, want ceiling %v", rt.quantum, cfg.MaxQuantum)
	}

	// Near-target band and idle windows hold still.
	hold := rt.quantum
	c.Step(Signals{P999: 150 * time.Microsecond}) // between target/2 and target
	c.Step(Signals{})                             // idle
	if rt.quantum != hold {
		t.Fatalf("quantum moved to %v on hold/idle signals", rt.quantum)
	}

	// A hot short burn window tightens even when p999 reads under
	// target (rejected requests burn budget without a latency sample).
	c.Step(Signals{P999: 100 * time.Microsecond, ShortBurn: 5})
	if rt.quantum >= hold {
		t.Fatalf("quantum = %v did not tighten on hot burn rate", rt.quantum)
	}
}

func TestControllerClassQuantaFollowBase(t *testing.T) {
	rt := newFakeRuntime(100*time.Microsecond, PolicyFCFS)
	cfg := testConfig()
	cfg.ClassScales = map[int]float64{1: 0.5, 2: 8.0}
	c := New(rt, cfg)

	// Seeded at New from the starting quantum, clamped to bounds.
	if got := rt.class[1]; got != 50*time.Microsecond {
		t.Fatalf("class 1 quantum = %v, want 50µs", got)
	}
	if got := rt.class[2]; got != cfg.MaxQuantum {
		t.Fatalf("class 2 quantum = %v, want clamp to %v", got, cfg.MaxQuantum)
	}

	// Base moves → class quanta re-derived.
	c.Step(Signals{P999: 300 * time.Microsecond})
	wantBase := time.Duration(float64(100*time.Microsecond) * quantumDecrease)
	if rt.quantum != wantBase {
		t.Fatalf("base quantum = %v, want %v", rt.quantum, wantBase)
	}
	if got := rt.class[1]; got != wantBase/2 {
		t.Fatalf("class 1 quantum = %v, want %v", got, wantBase/2)
	}
}

func TestNewNormalizesQuantum(t *testing.T) {
	// An unset quantum starts at the ceiling: adaptive servers always
	// run preemptible.
	rt := newFakeRuntime(0, PolicyFCFS)
	cfg := testConfig()
	New(rt, cfg)
	if rt.quantum != cfg.MaxQuantum {
		t.Fatalf("quantum = %v from unset, want %v", rt.quantum, cfg.MaxQuantum)
	}

	// Out-of-bounds starting quanta clamp.
	rt = newFakeRuntime(time.Microsecond, PolicyFCFS)
	New(rt, cfg)
	if rt.quantum != cfg.MinQuantum {
		t.Fatalf("quantum = %v from below-floor, want %v", rt.quantum, cfg.MinQuantum)
	}
}

// TestMeasuredClassQuantaFollowShifts: with a ClassSvcNS source the
// per-class quanta derive from measured service-time quantiles and
// track them as the workload shifts, overriding the static scales for
// measured classes and falling back for unmeasured ones.
func TestMeasuredClassQuantaFollowShifts(t *testing.T) {
	rt := newFakeRuntime(100*time.Microsecond, PolicyFCFS)
	cfg := testConfig()
	cfg.SLOTarget = 0 // hold the base quantum still; isolate class scaling
	cfg.ClassScales = map[int]float64{1: 0.5, 3: 2.0}
	svc := []float64{100_000, 0, 0, 0} // ns: only the default class measured yet
	cfg.ClassSvcNS = func() []float64 { return append([]float64(nil), svc...) }
	c := New(rt, cfg)

	// No measurements for classes 1/3 → static scales apply.
	if got := rt.class[1]; got != 50*time.Microsecond {
		t.Fatalf("unmeasured class 1 quantum = %v, want static 50µs", got)
	}
	if got := rt.class[3]; got != 200*time.Microsecond {
		t.Fatalf("unmeasured class 3 quantum = %v, want static 200µs", got)
	}

	// Measurements land: short runs at 1/4 the default, long at 4×.
	svc[1], svc[2] = 25_000, 400_000
	c.Step(Signals{})
	if got := rt.class[1]; got != 25*time.Microsecond {
		t.Fatalf("class 1 quantum = %v after measuring svc/4, want 25µs", got)
	}
	if got := rt.class[2]; got != 400*time.Microsecond {
		t.Fatalf("class 2 quantum = %v after measuring 4×svc, want 400µs", got)
	}

	// The workload shifts — short work doubles — and the quanta follow
	// without the base quantum moving.
	svc[1] = 50_000
	c.Step(Signals{})
	if got := rt.class[1]; got != 50*time.Microsecond {
		t.Fatalf("class 1 quantum = %v after shift, want 50µs", got)
	}
	if rt.quantum != 100*time.Microsecond {
		t.Fatalf("base quantum drifted to %v", rt.quantum)
	}

	// Extreme ratios clamp at the scale bounds (then the quantum bounds).
	svc[2] = 100_000_000 // 1000× the default class
	c.Step(Signals{})
	if got := rt.class[2]; got != cfg.MaxQuantum {
		t.Fatalf("class 2 quantum = %v at 1000× ratio, want clamp %v", got, cfg.MaxQuantum)
	}
}

// TestMeasuredClassQuantaNoDefaultAnchor: when the default class has no
// traffic the positive measurements anchor on their own mean.
func TestMeasuredClassQuantaNoDefaultAnchor(t *testing.T) {
	rt := newFakeRuntime(100*time.Microsecond, PolicyFCFS)
	cfg := testConfig()
	cfg.SLOTarget = 0
	// short 20µs, long 180µs → mean anchor 100µs → scales 0.2 / 1.8.
	cfg.ClassSvcNS = func() []float64 { return []float64{0, 20_000, 180_000} }
	c := New(rt, cfg)
	c.Step(Signals{})
	if got := rt.class[1]; got != 20*time.Microsecond {
		t.Fatalf("class 1 quantum = %v, want 20µs off the mean anchor", got)
	}
	if got := rt.class[2]; got != 180*time.Microsecond {
		t.Fatalf("class 2 quantum = %v, want 180µs off the mean anchor", got)
	}
}
