package obs

import (
	"math"
	"sync"
	"testing"
	"time"

	"concord/internal/sim"
)

// fakeClock is a hand-advanced monotonic clock for window tests.
type fakeClock struct {
	mu sync.Mutex
	ns int64
}

func (c *fakeClock) now() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ns
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.ns += int64(d)
	c.mu.Unlock()
}

// newClockedWindow builds a tracker whose ring has the given epoch and
// span (the shortest window is 4 epochs) on a hand-advanced clock.
func newClockedWindow(epoch, span time.Duration) (*TailTracker, *fakeClock) {
	w := NewTailTracker([]time.Duration{4 * epoch, span}, nil)
	clk := &fakeClock{}
	w.ring.now = clk.now
	return w, clk
}

// observeUS records one latency given in microseconds.
func observeUS(w *TailTracker, us int64) { w.Observe(time.Duration(us)*time.Microsecond, true) }

// quantileUS is the trailing window's q-quantile in microseconds.
func quantileUS(w *TailTracker, window time.Duration, q float64) float64 {
	return w.Snapshot(window).Quantile(q) / 1e3
}

func TestWindowEmpty(t *testing.T) {
	w, _ := newClockedWindow(250*time.Millisecond, time.Minute)
	s := w.Snapshot(10 * time.Second)
	if s.Count != 0 {
		t.Fatalf("empty window Count = %d", s.Count)
	}
	if q := quantileUS(w, 10*time.Second, 0.999); !math.IsNaN(q) {
		t.Fatalf("empty window quantile = %v, want NaN", q)
	}
}

// TestWindowRotation: observations age out of short windows
// while remaining visible in longer ones.
func TestWindowRotation(t *testing.T) {
	w, clk := newClockedWindow(250*time.Millisecond, time.Minute)
	for i := 0; i < 100; i++ {
		observeUS(w, 100)
	}
	clk.advance(2 * time.Second)
	for i := 0; i < 50; i++ {
		observeUS(w, 3000)
	}

	if got := w.Snapshot(time.Second).Count; got != 50 {
		t.Fatalf("1s window Count = %d, want only the recent 50", got)
	}
	if got := w.Snapshot(10 * time.Second).Count; got != 150 {
		t.Fatalf("10s window Count = %d, want all 150", got)
	}
	// The 1s view must not see the old 100µs mass at all.
	if q := quantileUS(w, time.Second, 0.5); math.Abs(q-3000)/3000 > 0.045 {
		t.Fatalf("1s p50 = %vµs, want 3000µs within the sketch error", q)
	}
}

// TestWindowIdleGap: after an idle gap longer than the span,
// every window is empty again, and stale slots reused after wraparound
// never leak old observations into fresh windows.
func TestWindowIdleGap(t *testing.T) {
	w, clk := newClockedWindow(250*time.Millisecond, 10*time.Second)
	for i := 0; i < 100; i++ {
		observeUS(w, 42)
	}
	clk.advance(time.Hour) // idle gap, many full ring wraparounds
	if got := w.Snapshot(10 * time.Second).Count; got != 0 {
		t.Fatalf("post-gap window Count = %d, want 0 (stale epochs must drop)", got)
	}
	observeUS(w, 7)
	s := w.Snapshot(10 * time.Second)
	if s.Count != 1 || s.Sum != 7_000 {
		t.Fatalf("post-gap observation: Count=%d Sum=%vns, want 1/7000", s.Count, s.Sum)
	}
}

// TestWindowIdleGapEpochAliasing: the adversarial idle-gap
// case for lazy slot reuse. The ring addresses slots as epoch mod len,
// so a clock jump of exactly k×len×epoch lands every new epoch on a
// slot whose stale occupant has the *same index* but an older epoch
// number — the one case where a reuse bug would silently alias old
// samples into fresh windows instead of failing loudly. Stale slots
// must be lazily reset on write (slot()) and skipped on read
// (WindowSnapshot's s.num != i check), so merged quantiles carry no
// ghost samples.
func TestWindowIdleGapEpochAliasing(t *testing.T) {
	const epoch = 250 * time.Millisecond
	w, clk := newClockedWindow(epoch, 10*time.Second)
	ringLen := len(w.ring.slots)
	span := w.Windows()[1]

	// Fill every slot with old 5000µs samples so any leak is visible.
	for i := 0; i < ringLen; i++ {
		observeUS(w, 5000)
		clk.advance(epoch)
	}

	// Jump the clock by exactly three full ring revolutions: every
	// epoch now aliases a stale slot at the same ring index.
	clk.advance(time.Duration(3*ringLen) * epoch)

	// Read-side laziness: without a single new write, every stale slot
	// must be skipped during the merge.
	if got := w.Snapshot(span).Count; got != 0 {
		t.Fatalf("full-span window after aliasing jump: Count = %d, want 0", got)
	}

	// Write-side laziness: one new observation resets only its own
	// slot; the merged window must hold exactly that sample, and the
	// quantile must sit in the new sample's bucket, nowhere near the
	// stale 5000µs mass.
	observeUS(w, 10)
	s := w.Snapshot(span)
	if s.Count != 1 || s.Sum != 10_000 {
		t.Fatalf("post-jump window: Count=%d Sum=%vns, want 1/10000 (ghost samples leaked)", s.Count, s.Sum)
	}
	if q := s.Quantile(0.999) / 1e3; q > 16 {
		t.Fatalf("post-jump p99.9 = %vµs, want within the 10µs bucket (stale 5000µs mass leaked)", q)
	}

	// A second partial-gap jump (shorter than the span) must keep the
	// surviving epoch visible and still expose no stale slots.
	clk.advance(4 * time.Second)
	observeUS(w, 20)
	s = w.Snapshot(span)
	if s.Count != 2 || s.Sum != 30_000 {
		t.Fatalf("partial-gap window: Count=%d Sum=%vns, want 2/30000", s.Count, s.Sum)
	}
	// But a window shorter than the partial gap must only see the
	// newest sample.
	if got := w.Snapshot(time.Second); got.Count != 1 || got.Sum != 20_000 {
		t.Fatalf("1s window after partial gap: Count=%d Sum=%vns, want 1/20000", got.Count, got.Sum)
	}
}

// TestWindowMergeKeepsQuantileError: the sketch's ≤4.4% quantile error
// survives a windowed merge. Lognormal latencies spread over 80 epochs
// are read back through one merged window and compared against the
// exact quantiles of the same samples; a shorter window must agree with
// the exact quantiles of just the samples it covers.
func TestWindowMergeKeepsQuantileError(t *testing.T) {
	w, clk := newClockedWindow(250*time.Millisecond, time.Minute)
	rng := sim.NewRNG(11)
	var all, recent []float64
	for tick := 0; tick < 200; tick++ { // 20s at 100ms per tick
		for i := 0; i < 50; i++ {
			ns := int64(rng.Lognormal(math.Log(20_000), 1.5)) + 1
			w.Observe(time.Duration(ns), true)
			all = append(all, float64(ns))
			if tick >= 160 { // the last 4s: epochs 64..79
				recent = append(recent, float64(ns))
			}
		}
		clk.advance(100 * time.Millisecond)
	}
	clk.advance(-100 * time.Millisecond) // stand inside the last written epoch
	bound := math.Pow(2, 1.0/16) - 1 + 1e-6
	for _, c := range []struct {
		window time.Duration
		vals   []float64
	}{{time.Minute, all}, {4 * time.Second, recent}} {
		snap := w.Snapshot(c.window)
		if snap.Count != uint64(len(c.vals)) {
			t.Fatalf("%v window Count = %d, want %d", c.window, snap.Count, len(c.vals))
		}
		for _, q := range []float64{0.50, 0.99, 0.999} {
			exact := exactQuantile(c.vals, q)
			if got := snap.Quantile(q); math.Abs(got-exact)/exact > bound {
				t.Errorf("%v window p%g: merged %.0f vs exact %.0f (rel err %.2f%% > 4.4%%)",
					c.window, q*100, got, exact, 100*math.Abs(got-exact)/exact)
			}
		}
	}
}

// TestWindowPartialEpochCoverage: a window merges the
// current partial epoch plus enough whole epochs to cover it.
func TestWindowPartialEpochCoverage(t *testing.T) {
	w, clk := newClockedWindow(time.Second, time.Minute)
	observeUS(w, 1) // epoch 0
	clk.advance(1100 * time.Millisecond)
	observeUS(w, 2) // epoch 1
	// Now at t=1.1s: a 1s window spans epochs 1 and 0... epoch 0 is
	// within ceil(1s/1s)=1 epoch back including current, so only
	// epoch 1 is merged.
	if got := w.Snapshot(time.Second).Count; got != 1 {
		t.Fatalf("1s window Count = %d, want 1 (current epoch only)", got)
	}
	if got := w.Snapshot(2 * time.Second).Count; got != 2 {
		t.Fatalf("2s window Count = %d, want 2", got)
	}
}

func TestWindowClamps(t *testing.T) {
	w := NewTailTracker([]time.Duration{0}, nil)
	if e := time.Duration(w.ring.epochNS); e < time.Millisecond {
		t.Fatalf("epoch not clamped: %v", e)
	}
	if n := len(w.ring.slots); n < 2 {
		t.Fatalf("ring too small: %d", n)
	}
	// A window far beyond the span is clamped, not a panic.
	observeUS(w, 5)
	if got := w.Snapshot(time.Hour).Count; got != 1 {
		t.Fatalf("over-span window Count = %d, want 1", got)
	}
}

// TestWindowConcurrent exercises concurrent observers and
// readers across rotations under -race.
func TestWindowConcurrent(t *testing.T) {
	w := NewTailTracker([]time.Duration{4 * time.Millisecond, 50 * time.Millisecond}, nil)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				observeUS(w, int64(i%1000))
			}
		}(g)
	}
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				w.Snapshot(25 * time.Millisecond)
				quantileUS(w, 10*time.Millisecond, 0.99)
			}
		}
	}()
	wg.Wait()
	close(stop)
}

func TestTailTrackerDefaults(t *testing.T) {
	tt := NewTailTracker(nil, nil)
	want := DefaultWindows()
	got := tt.Windows()
	if len(got) != len(want) {
		t.Fatalf("Windows() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Windows() = %v, want %v", got, want)
		}
	}
	if tt.SLO() != nil {
		t.Fatal("unexpected SLO tracker")
	}
	if e := time.Duration(tt.ring.epochNS); e != want[0]/4 {
		t.Fatalf("epoch = %v, want %v", e, want[0]/4)
	}
	// The documented footprint: 241 epochs at 1s/10s/60s.
	if n := len(tt.ring.slots); n != 241 {
		t.Fatalf("ring = %d epochs, want 241", n)
	}
	tt.Observe(100*time.Microsecond, true)
	if got := tt.Snapshot(time.Minute).Count; got != 1 {
		t.Fatalf("observation not recorded: Count = %d", got)
	}
	if q := quantileUS(tt, time.Minute, 0.5); math.Abs(q-100)/100 > 0.045 {
		t.Fatalf("p50 = %vµs, want 100µs within the sketch error", q)
	}
}

func TestTailTrackerWithSLO(t *testing.T) {
	slo := NewSLOTracker(200 * time.Microsecond)
	tt := NewTailTracker([]time.Duration{time.Second}, slo)
	tt.Observe(100*time.Microsecond, true)  // good
	tt.Observe(500*time.Microsecond, true)  // bad: over target
	tt.Observe(100*time.Microsecond, false) // bad: errored
	s := slo.Snapshot()
	if s.ShortTotal != 3 || s.ShortGood != 1 {
		t.Fatalf("SLO counts good/total = %d/%d, want 1/3", s.ShortGood, s.ShortTotal)
	}
}

// TestTailTrackerClasses checks the per-class arrangement a caller builds
// from plain trackers: each class's tracker judges a latency against its
// own target, and a refusal accounted on the SLO alone counts bad without
// entering any latency window.
func TestTailTrackerClasses(t *testing.T) {
	newTracker := func(target time.Duration) *TailTracker {
		return NewTailTracker([]time.Duration{time.Second}, NewSLOTracker(target))
	}
	server := newTracker(time.Millisecond)
	classes := []*TailTracker{newTracker(time.Millisecond), newTracker(50 * time.Microsecond)}
	observe := func(class int, latency time.Duration) {
		server.Observe(latency, true)
		classes[class].Observe(latency, true)
	}
	refuse := func(class int) {
		server.SLO().Observe(0, false)
		classes[class].SLO().Observe(0, false)
	}

	observe(1, 100*time.Microsecond) // over class 1's own target
	observe(0, 100*time.Microsecond)
	observe(0, 100*time.Microsecond)
	refuse(1)

	for _, c := range []struct {
		name                      string
		tr                        *TailTracker
		window, sloGood, sloTotal uint64
	}{
		{"server", server, 3, 3, 4},
		{"class 0", classes[0], 2, 2, 2},
		{"class 1", classes[1], 1, 0, 2},
	} {
		if got := c.tr.Snapshot(time.Second).Count; got != c.window {
			t.Errorf("%s window Count = %d, want %d", c.name, got, c.window)
		}
		if s := c.tr.SLO().Snapshot(); s.ShortGood != c.sloGood || s.ShortTotal != c.sloTotal {
			t.Errorf("%s SLO good/total = %d/%d, want %d/%d", c.name, s.ShortGood, s.ShortTotal, c.sloGood, c.sloTotal)
		}
	}
}
