package stats

import (
	"math"
	"reflect"
	"slices"
	"testing"
)

// TestReservoirExactBelowCap: until the cap is reached the reservoir IS
// the exact sample set, sample for sample and in the same order, so
// quick-fidelity runs lose nothing.
func TestReservoirExactBelowCap(t *testing.T) {
	r := NewReservoir(100, 50, 1)
	e := NewCollector(50)
	for i := 0; i < 50; i++ {
		s := Sample{Slowdown: float64(i%7 + 1), SojournUS: float64(i)}
		r.Add(s)
		e.Add(s)
	}
	if r.Retained() != 50 || r.Len() != 50 {
		t.Fatalf("retained=%d len=%d, want 50/50", r.Retained(), r.Len())
	}
	if !r.Exact() {
		t.Fatal("below cap the reservoir should report Exact()")
	}
	if !slices.Equal(r.Samples(), e.Samples()) {
		t.Fatalf("reservoir holds %v, exact collector %v", r.Samples(), e.Samples())
	}
	for _, p := range []float64{1, 50, 99, 99.9, 100} {
		if r.SlowdownPercentile(p) != e.SlowdownPercentile(p) {
			t.Fatalf("p%v: reservoir %v != exact %v", p, r.SlowdownPercentile(p), e.SlowdownPercentile(p))
		}
	}
	if r.MeanSlowdown() != e.MeanSlowdown() {
		t.Fatal("mean differs below cap")
	}
}

// TestReservoirBoundedRetention: past the cap, retention stays at the
// cap while count and mean remain exact over the full stream.
func TestReservoirBoundedRetention(t *testing.T) {
	const cap, n = 64, 10000
	r := NewReservoir(cap, n, 42)
	var sum float64
	for i := 0; i < n; i++ {
		v := float64(i%100) + 1
		sum += v
		r.Add(Sample{Slowdown: v})
	}
	if r.Retained() != cap {
		t.Fatalf("retained = %d, want %d", r.Retained(), cap)
	}
	if r.Len() != n {
		t.Fatalf("Len() = %d, want %d (total count, not retained)", r.Len(), n)
	}
	if r.Exact() {
		t.Fatal("past cap the reservoir must not report Exact()")
	}
	if got := r.MeanSlowdown(); math.Abs(got-sum/n) > 1e-9 {
		t.Fatalf("mean = %v, want exact %v", got, sum/n)
	}
	// Percentiles come from the retained subset: must be legal values.
	for _, p := range []float64{50, 99, 100} {
		v := r.SlowdownPercentile(p)
		if v < 1 || v > 100 {
			t.Fatalf("p%v = %v outside the input range", p, v)
		}
	}
}

// TestReservoirDeterministic: same seed and stream → identical retained
// samples; a different seed evicts differently. This is what makes
// reservoir mode safe under the parallel runner.
func TestReservoirDeterministic(t *testing.T) {
	stream := func(r *Collector) {
		for i := 0; i < 5000; i++ {
			r.Add(Sample{Slowdown: float64(i)})
		}
	}
	a, b, c := NewReservoir(32, 0, 9), NewReservoir(32, 0, 9), NewReservoir(32, 0, 10)
	stream(a)
	stream(b)
	stream(c)
	if !reflect.DeepEqual(a.Samples(), b.Samples()) {
		t.Fatal("same seed produced different reservoirs")
	}
	if reflect.DeepEqual(a.Samples(), c.Samples()) {
		t.Fatal("different seeds produced identical reservoirs (suspicious)")
	}
}

// TestAddAllocatesNothing: a collector built for the n samples its run
// offers holds them in the slice it was built with — exact, reservoir
// below its bound, and reservoir past it alike — so Add never allocates.
func TestAddAllocatesNothing(t *testing.T) {
	const n, runs = 5000, 4
	for name, mk := range map[string]func() *Collector{
		"exact":          func() *Collector { return NewCollector(n) },
		"reservoir":      func() *Collector { return NewReservoir(0, n, 1) },
		"reservoir-full": func() *Collector { return NewReservoir(n/4, n, 1) },
	} {
		cs := make([]*Collector, runs+1) // AllocsPerRun runs f once more to warm up
		for i := range cs {
			cs[i] = mk()
		}
		next := 0
		got := testing.AllocsPerRun(runs, func() {
			c := cs[next]
			next++
			for i := range n {
				c.Add(Sample{Slowdown: float64(i), SojournUS: float64(i)})
			}
		})
		if got != 0 {
			t.Errorf("%s: %v allocations over %d Adds, want 0", name, got, n)
		}
	}
}
