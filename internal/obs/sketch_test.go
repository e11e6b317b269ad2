package obs

import (
	"math"
	"sort"
	"sync"
	"testing"

	"concord/internal/sim"
)

// exactQuantile returns the empirical q-quantile of vals (nearest-rank).
func exactQuantile(vals []float64, q float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// The acceptance contract: sketch quantiles within 5% of exact
// quantiles on known distributions. The sketch's bucket geometry bounds
// the error at 2^(1/16)−1 ≈ 4.4%, so 5% must hold across distribution
// shapes and quantile ranks.
func TestSketchQuantileAccuracy(t *testing.T) {
	rng := sim.NewRNG(42)
	dists := map[string]func() float64{
		"fixed":     func() float64 { return 12_345 },
		"exp":       func() float64 { return rng.Exp(50_000) },
		"lognormal": func() float64 { return rng.Lognormal(math.Log(20_000), 1.5) },
		"pareto":    func() float64 { return rng.Pareto(1_000, 1.2) },
	}
	for name, draw := range dists {
		var sk QuantileSketch
		vals := make([]float64, 0, 20000)
		for i := 0; i < 20000; i++ {
			v := draw()
			vals = append(vals, v)
			sk.Observe(int64(v))
		}
		snap := sk.Snapshot()
		if snap.Count != 20000 {
			t.Fatalf("%s: count = %d, want 20000", name, snap.Count)
		}
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
			exact := exactQuantile(vals, q)
			got := snap.Quantile(q)
			if relErr := math.Abs(got-exact) / exact; relErr > 0.05 {
				t.Errorf("%s p%g: sketch %.0f vs exact %.0f (rel err %.2f%% > 5%%)",
					name, q*100, got, exact, relErr*100)
			}
		}
	}
}

func TestSketchMean(t *testing.T) {
	var sk QuantileSketch
	for _, v := range []int64{100, 200, 300} {
		sk.Observe(v)
	}
	if m := sk.Snapshot().Mean(); m != 200 {
		t.Fatalf("mean = %v, want 200 (means are exact, not bucketed)", m)
	}
}

func TestSketchEmptyAndClamping(t *testing.T) {
	var sk QuantileSketch
	if q := sk.Snapshot().Quantile(0.99); !math.IsNaN(q) {
		t.Fatalf("empty sketch quantile = %v, want NaN", q)
	}
	sk.Observe(0)
	sk.Observe(-5)
	snap := sk.Snapshot()
	if snap.Count != 2 {
		t.Fatalf("non-positive observations must count: count = %d", snap.Count)
	}
	if snap.Buckets[0] != 2 {
		t.Fatalf("non-positive observations must clamp into bucket 0, got %v", snap.Buckets)
	}
	// The other end: the largest int64 lands in the last octave.
	sk.Observe(math.MaxInt64)
	if oct := sk.Snapshot().Octaves(); oct[SketchOctaves-2] != 1 {
		t.Fatalf("MaxInt64 not in octave %d: %v", SketchOctaves-2, oct)
	}
}

// exactCV is the population coefficient of variation of vals.
func exactCV(vals []float64) (mean, cv float64) {
	for _, v := range vals {
		mean += v
	}
	mean /= float64(len(vals))
	var ss float64
	for _, v := range vals {
		ss += (v - mean) * (v - mean)
	}
	return mean, math.Sqrt(ss/float64(len(vals))) / mean
}

// The controller's dispersion signal is a view of the sketch: mean is
// exact, CV is taken at bucket midpoints. It must read ≈0 on a constant
// stream, track the exact CV on dispersed ones (each midpoint is off by
// up to 4.4%, so a few-valued stream can read several percent off; the
// hysteresis band 0.85..1.15 is wider than that), and stay finite at
// second-scale values where an int64 sum of squares would overflow.
func TestSketchMeanAndCV(t *testing.T) {
	rng := sim.NewRNG(3)
	dists := map[string]func(i int) float64{
		"constant": func(int) float64 { return 10_000 },
		"bimodal": func(i int) float64 { // 95% 5µs point ops, 5% 1ms scans
			if i%20 == 0 {
				return 1_000_000
			}
			return 5_000
		},
		"lognormal": func(int) float64 { return math.Floor(rng.Lognormal(math.Log(20_000), 1.0)) + 1 },
		"seconds":   func(i int) float64 { return float64(1+i%3) * 1e9 }, // Σx² ≈ 4e22 ≫ 2^63
	}
	for name, draw := range dists {
		var sk QuantileSketch
		vals := make([]float64, 10000)
		for i := range vals {
			vals[i] = draw(i)
			sk.Observe(int64(vals[i]))
		}
		snap := sk.Snapshot()
		mean, cv := exactCV(vals)
		if got := snap.Mean(); math.Abs(got-mean)/mean > 1e-9 {
			t.Errorf("%s: mean = %v, want exactly %v", name, got, mean)
		}
		got := snap.CV()
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Fatalf("%s: CV = %v", name, got)
		}
		if name == "constant" {
			if got != 0 {
				t.Errorf("constant stream CV = %v, want exactly 0", got)
			}
			continue
		}
		if math.Abs(got-cv) > 0.10*cv {
			t.Errorf("%s: CV = %.4f, exact %.4f (off by more than 10%%)", name, got, cv)
		}
	}
	if cv := (SketchSnapshot{}).CV(); cv != 0 {
		t.Errorf("empty snapshot CV = %v, want 0", cv)
	}
}

// Since is how the controller reads a cumulative sketch one tick at a
// time: the difference of two snapshots describes exactly the
// observations made between them.
func TestSketchSince(t *testing.T) {
	var sk, second QuantileSketch
	for i := 0; i < 100; i++ {
		sk.Observe(10_000)
	}
	prev := sk.Snapshot()
	for i := 0; i < 40; i++ {
		v := int64(50_000 + 1000*i)
		sk.Observe(v)
		second.Observe(v)
	}
	if got, want := sk.Snapshot().Since(prev), second.Snapshot(); got != want {
		t.Fatalf("Since = count %d sum %d, want the second batch alone (count %d sum %d)",
			got.Count, got.Sum, want.Count, want.Sum)
	}
	if got := sk.Snapshot().Since(sk.Snapshot()); got.Count != 0 || got.Sum != 0 {
		t.Fatalf("Since(self) = %+v, want empty", got)
	}
}

// Flush batches are small integers observed as plain counts. The
// geometry separates n from n+1 while (n+1)/n exceeds the bucket growth
// factor 2^(1/8) — through 11 — and above that two neighbours may share
// a bucket, but every value from 1 to 32 still reads back within the
// sketch's error and in order.
func TestSketchSmallIntegers(t *testing.T) {
	last := -1
	for n := int64(1); n <= 32; n++ {
		i := sketchIndex(n)
		if n <= 11 && i == last {
			t.Errorf("%d shares bucket %d with %d", n, i, n-1)
		}
		if i < last {
			t.Errorf("bucket order inverted at %d", n)
		}
		last = i
		var sk QuantileSketch
		sk.Observe(n)
		if got := sk.Snapshot().Quantile(0.5); math.Abs(got-float64(n))/float64(n) > 0.0443 {
			t.Errorf("constant %d reads back as %.3f", n, got)
		}
	}
	// Octaves, the exposition resolution: 1 | 2,3 | 4..7 | 8..15 | 16..31 | 32.
	var sk QuantileSketch
	for n := int64(1); n <= 32; n++ {
		sk.Observe(n)
	}
	oct := sk.Snapshot().Octaves()
	for k, want := range []uint64{1, 2, 4, 8, 16, 1} {
		if oct[k] != want {
			t.Errorf("octave %d holds %d values, want %d", k, oct[k], want)
		}
	}
}

// Merging two sketches' snapshots must equal a single sketch that saw
// the union of the observations — the per-worker aggregation contract.
func TestSketchMerge(t *testing.T) {
	rng := sim.NewRNG(7)
	var a, b, union QuantileSketch
	for i := 0; i < 5000; i++ {
		v := int64(rng.Exp(30_000))
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
		union.Observe(v)
	}
	merged := a.Snapshot()
	merged.Merge(b.Snapshot())
	want := union.Snapshot()
	if merged != want {
		t.Fatal("merged snapshot differs from union sketch")
	}
	merged.Merge(SketchSnapshot{})
	if merged != want {
		t.Fatal("merging an empty snapshot changed the result")
	}
}

// Concurrent observation must lose nothing (the sketch is the
// completion path's estimator: every executor feeds it in parallel).
func TestSketchConcurrent(t *testing.T) {
	var sk QuantileSketch
	const writers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sk.Observe(int64(1000 + w*100 + i))
			}
		}()
	}
	wg.Wait()
	if c := sk.Snapshot().Count; c != writers*per {
		t.Fatalf("count = %d, want %d", c, writers*per)
	}
}

func TestClassSketchesObserve(t *testing.T) {
	cs := NewClassSketches(4)
	// Class 1: 10µs service with exact hints; class 2: 100µs with 10×
	// overshooting hints; out-of-range class folds into 0.
	for i := 0; i < 100; i++ {
		cs.Observe(1, 10_000, 10_000)
		cs.Observe(2, 100_000, 1_000_000)
		cs.Observe(99, 5_000, 0)
	}
	if got := cs.ServiceQuantileNS(1, 0.5); math.Abs(got-10_000)/10_000 > 0.05 {
		t.Errorf("class 1 p50 = %v, want ≈10000", got)
	}
	if got := cs.ServiceQuantileNS(2, 0.5); math.Abs(got-100_000)/100_000 > 0.05 {
		t.Errorf("class 2 p50 = %v, want ≈100000", got)
	}
	if got := cs.ServiceQuantileNS(0, 0.5); math.Abs(got-5_000)/5_000 > 0.05 {
		t.Errorf("out-of-range class must fold into class 0: p50 = %v, want ≈5000", got)
	}
	if got := cs.ServiceQuantileNS(3, 0.5); got != 0 {
		t.Errorf("class with no data must report 0, got %v", got)
	}
	// Hint-error: class 1 sits at the exact-hint mark, class 2 at 10×
	// over; unhinted class-0 observations record no ratio at all.
	if p50 := cs.HintError(1).Snapshot().Quantile(0.5); math.Abs(p50-HintErrorScale)/HintErrorScale > 0.5 {
		t.Errorf("class 1 hint-error p50 = %v, want ≈%d (exact hints)", p50, HintErrorScale)
	}
	if p50 := cs.HintError(2).Snapshot().Quantile(0.5); p50 < 5*HintErrorScale {
		t.Errorf("class 2 hint-error p50 = %v, want ≥%d (10× overshoot)", p50, 5*HintErrorScale)
	}
	if n := cs.HintError(0).Snapshot().Count; n != 0 {
		t.Errorf("unhinted observations must not feed hint-error: count = %d", n)
	}
	qs := cs.ServiceQuantilesNS(0.5)
	if len(qs) != 4 || qs[3] != 0 || qs[1] == 0 {
		t.Errorf("ServiceQuantilesNS = %v", qs)
	}
}
