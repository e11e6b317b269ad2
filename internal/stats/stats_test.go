package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func collectorWith(vals ...float64) *Collector {
	c := NewCollector(len(vals))
	for _, v := range vals {
		c.Add(Sample{Slowdown: v})
	}
	return c
}

func TestPercentileNearestRank(t *testing.T) {
	c := collectorWith(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	cases := []struct {
		p    float64
		want float64
	}{
		{50, 5}, {10, 1}, {100, 10}, {99, 10}, {91, 10}, {90, 9},
	}
	for _, tc := range cases {
		if got := c.SlowdownPercentile(tc.p); got != tc.want {
			t.Errorf("p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestPercentileEmptyAndBounds(t *testing.T) {
	c := NewCollector(0)
	if !math.IsNaN(c.SlowdownPercentile(50)) {
		t.Error("empty collector should return NaN")
	}
	if !math.IsNaN(c.MeanSlowdown()) {
		t.Error("empty collector mean should be NaN")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("percentile 0 should panic")
		}
	}()
	collectorWith(1).SlowdownPercentile(0)
}

func TestPercentileMonotoneProperty(t *testing.T) {
	prop := func(vals []float64, a, b uint8) bool {
		if len(vals) == 0 {
			return true
		}
		c := NewCollector(len(vals))
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			c.Add(Sample{Slowdown: math.Abs(v)})
		}
		pa := 0.1 + float64(a)/256*99
		pb := 0.1 + float64(b)/256*99
		if pa > pb {
			pa, pb = pb, pa
		}
		return c.SlowdownPercentile(pa) <= c.SlowdownPercentile(pb)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileInterleavedAdds(t *testing.T) {
	c := collectorWith(5, 1)
	if got := c.SlowdownPercentile(100); got != 5 {
		t.Fatalf("p100 = %v, want 5", got)
	}
	c.Add(Sample{Slowdown: 9})
	if got := c.SlowdownPercentile(100); got != 9 {
		t.Fatalf("p100 after add = %v, want 9 (re-sort after Add)", got)
	}
}

func TestMeanSlowdown(t *testing.T) {
	if got := collectorWith(1, 2, 3).MeanSlowdown(); got != 2 {
		t.Fatalf("mean = %v, want 2", got)
	}
}

func curve(points ...Point) Curve { return Curve{System: "test", Points: points} }

func TestMaxLoadUnderSLO(t *testing.T) {
	c := curve(
		Point{OfferedKRps: 100, P999: 5},
		Point{OfferedKRps: 200, P999: 20},
		Point{OfferedKRps: 300, P999: 80},
	)
	got, ok := c.MaxLoadUnderSLO(50)
	if !ok {
		t.Fatal("SLO met at 200 but ok=false")
	}
	// Interpolation between (200,20) and (300,80): 200 + 100·(30/60) = 250.
	if math.Abs(got-250) > 1e-9 {
		t.Fatalf("max load = %v, want 250", got)
	}
}

func TestMaxLoadUnderSLONeverMet(t *testing.T) {
	c := curve(Point{OfferedKRps: 100, P999: 99})
	if _, ok := c.MaxLoadUnderSLO(50); ok {
		t.Fatal("SLO never met but ok=true")
	}
}

func TestMaxLoadUnderSLOAllPass(t *testing.T) {
	c := curve(
		Point{OfferedKRps: 100, P999: 5},
		Point{OfferedKRps: 200, P999: 10},
	)
	got, ok := c.MaxLoadUnderSLO(50)
	if !ok || got != 200 {
		t.Fatalf("max load = %v ok=%v, want 200 true", got, ok)
	}
}

func TestMaxLoadSkipsNaN(t *testing.T) {
	c := curve(
		Point{OfferedKRps: 100, P999: 5},
		Point{OfferedKRps: 150, P999: math.NaN()},
		Point{OfferedKRps: 200, P999: 30},
	)
	got, ok := c.MaxLoadUnderSLO(50)
	if !ok || got < 200 {
		t.Fatalf("max load = %v ok=%v, want >= 200", got, ok)
	}
}

func TestImprovement(t *testing.T) {
	a := curve(Point{OfferedKRps: 150, P999: 10}, Point{OfferedKRps: 152, P999: 60})
	b := curve(Point{OfferedKRps: 100, P999: 10}, Point{OfferedKRps: 102, P999: 60})
	imp, err := Improvement(a, b, 50)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(imp-0.5) > 0.03 {
		t.Fatalf("improvement = %v, want ≈0.5", imp)
	}
	if _, err := Improvement(a, curve(Point{OfferedKRps: 1, P999: 99}), 50); err == nil {
		t.Fatal("expected error when baseline never meets SLO")
	}
}
