package live

import (
	"math"
	"testing"
	"time"

	"concord/internal/obs"
)

// TestTailTrackerWiring: every delivered response lands in the rolling
// window, and the SLO accounts good vs bad against the latency target.
func TestTailTrackerWiring(t *testing.T) {
	slo := obs.NewSLOTracker(obs.SLOConfig{Target: 250 * time.Microsecond, Objective: 0.99})
	tail := obs.NewTailTracker([]time.Duration{time.Second, 10 * time.Second}, slo)
	o := testOptions(2, 0)
	o.Tail = tail
	s := New(&spinHandler{}, o)
	s.Start()

	// good counts the responses whose *observed* latency met the 250µs
	// target: under load (GC pauses, a shuffled test order putting heavy
	// suites first) a nominally-20µs request can legitimately exceed the
	// target on the wall clock, and the SLO tracker must count it bad.
	const short, long = 40, 10
	good := 0
	for i := 0; i < short; i++ {
		resp := s.Do(20 * time.Microsecond)
		if resp.Err != nil {
			t.Fatal(resp.Err)
		}
		if resp.Latency <= 250*time.Microsecond {
			good++
		}
	}
	for i := 0; i < long; i++ {
		// Far over the 250µs SLO target: counted served but bad.
		resp := s.Do(2 * time.Millisecond)
		if resp.Err != nil {
			t.Fatal(resp.Err)
		}
		if resp.Latency <= 250*time.Microsecond {
			good++
		}
	}
	s.Stop()
	if good < short/2 {
		t.Skipf("only %d of %d fast requests met the target; host too loaded to judge SLO accounting", good, short)
	}

	win := tail.Snapshot(10 * time.Second)
	if win.Count != short+long {
		t.Fatalf("window Count = %d, want %d (every response observed)", win.Count, short+long)
	}
	// The rolling p99.9 must reflect the 2ms class, the p50 the 20µs one.
	if q := win.Quantile(0.999) / 1e3; q < 1000 {
		t.Fatalf("rolling p99.9 = %vµs, want ≥1000 (the slow class)", q)
	}
	if q := win.Quantile(0.5) / 1e3; math.IsNaN(q) || q > 1000 {
		t.Fatalf("rolling p50 = %vµs, want the fast class", q)
	}
	snap := slo.Snapshot()
	if snap.ShortTotal != short+long {
		t.Fatalf("SLO total = %d, want %d", snap.ShortTotal, short+long)
	}
	if snap.ShortGood != uint64(good) {
		t.Fatalf("SLO good = %d, want %d (responses observed within the 250µs target)", snap.ShortGood, good)
	}
}

// TestTailTrackerCountsRejections: a rejected submission is SLO-bad —
// for the server and for its class's tracker — but never pollutes the
// latency window.
func TestTailTrackerCountsRejections(t *testing.T) {
	slo := obs.NewSLOTracker(obs.SLOConfig{Target: time.Second, Objective: 0.99})
	tail := obs.NewTailTracker(nil, slo)
	tail.Classes = NewClassTrackers()
	o := testOptions(1, 0)
	o.Tail = tail
	s := New(&spinHandler{}, o)
	s.Start()
	if resp := s.Do(time.Microsecond); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	s.Stop()
	// Post-stop submissions are rejected with ErrServerStopped.
	if resp := s.Do(time.Microsecond); resp.Err == nil {
		t.Fatal("submission after Stop succeeded")
	}
	snap := slo.Snapshot()
	if snap.ShortTotal != 2 || snap.ShortGood != 1 {
		t.Fatalf("SLO good/total = %d/%d, want 1/2 (rejection counted bad)", snap.ShortGood, snap.ShortTotal)
	}
	if got := tail.Snapshot(time.Minute).Count; got != 1 {
		t.Fatalf("window Count = %d, want 1 (rejections stay out of the latency window)", got)
	}
	// Unclassed payloads are ClassStandard: its tracker saw the same two
	// events, the other classes none.
	for c, ct := range tail.Classes {
		want := uint64(0)
		if SLOClass(c) == ClassStandard {
			want = 1
		}
		if got := ct.Snapshot(time.Second).Count; got != want {
			t.Errorf("class %d window Count = %d, want %d", c, got, want)
		}
		if got := ct.SLO().Snapshot().ShortTotal; got != 2*want {
			t.Errorf("class %d SLO total = %d, want %d", c, got, 2*want)
		}
	}
}
