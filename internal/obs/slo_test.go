package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

func newClockedSLO(target time.Duration) (*SLOTracker, *fakeClock) {
	tr := NewSLOTracker(target)
	clk := &fakeClock{}
	tr.ring.now = clk.now
	return tr, clk
}

// TestSLOConfigDefaults: the SLO's fixed shape. One bad request in a
// thousand burns exactly the 99.9% objective's budget (burn 1); it ages
// out of the short window after 5 minutes and of the long one after an
// hour.
func TestSLOConfigDefaults(t *testing.T) {
	tr, clk := newClockedSLO(time.Millisecond)
	for i := 0; i < 999; i++ {
		tr.Observe(time.Millisecond, true) // at the target: good
	}
	tr.Observe(time.Millisecond+1, true)
	if s := tr.Snapshot(); s.ShortGood != 999 || s.ShortTotal != 1000 || math.Abs(s.ShortBurn-1) > 1e-9 || s.LongBurn != s.ShortBurn {
		t.Fatalf("1 bad in 1000: %+v, want burn 1 over both windows", s)
	}
	clk.advance(sloShortWindow + sloShortWindow/20)
	if s := tr.Snapshot(); s.ShortTotal != 0 || s.LongTotal != 1000 {
		t.Fatalf("past the short window: short/long total %d/%d, want 0/1000", s.ShortTotal, s.LongTotal)
	}
	clk.advance(sloLongWindow)
	if s := tr.Snapshot(); s.LongTotal != 0 {
		t.Fatalf("past the long window: long total %d, want 0", s.LongTotal)
	}
}

func TestSLOTrackerEmpty(t *testing.T) {
	tr, _ := newClockedSLO(time.Millisecond)
	s := tr.Snapshot()
	if s.ShortBurn != 0 || s.LongBurn != 0 || s.Alerting {
		t.Fatalf("empty tracker snapshot = %+v", s)
	}
}

// TestSLOBurnRateValues: against the 99.9% objective (0.1% budget), a
// 0.2% bad ratio burns at 2.0.
func TestSLOBurnRateValues(t *testing.T) {
	tr, _ := newClockedSLO(time.Millisecond)
	for i := 0; i < 998; i++ {
		tr.Observe(time.Microsecond, true)
	}
	tr.Observe(time.Second, true) // over target
	tr.Observe(time.Microsecond, false)
	s := tr.Snapshot()
	if s.ShortGood != 998 || s.ShortTotal != 1000 {
		t.Fatalf("good/total = %d/%d, want 998/1000", s.ShortGood, s.ShortTotal)
	}
	if s.ShortBurn < 1.99 || s.ShortBurn > 2.01 {
		t.Fatalf("short burn = %v, want 2.0", s.ShortBurn)
	}
	if s.LongBurn != s.ShortBurn {
		t.Fatalf("long burn = %v, short = %v; same traffic should match", s.LongBurn, s.ShortBurn)
	}
	if s.Alerting {
		t.Fatal("burn 2.0 must not alert at the 14.4 threshold")
	}
}

// TestSLOAlertFiresAndClears drives the canonical incident shape with a
// fake clock: sustained hot burn fires the alert (both windows hot);
// recovery traffic cools the short window first, clearing the alert
// even while the long window still remembers the incident.
func TestSLOAlertFiresAndClears(t *testing.T) {
	tr, clk := newClockedSLO(time.Millisecond)

	// Phase 1 — healthy baseline for 10 minutes.
	for m := 0; m < 10; m++ {
		for i := 0; i < 100; i++ {
			tr.Observe(time.Microsecond, true)
		}
		clk.advance(time.Minute)
		if s := tr.Snapshot(); s.Alerting {
			t.Fatalf("alert fired on healthy traffic at minute %d: %+v", m, s)
		}
	}

	// Phase 2 — incident: 5% of requests breach the target (burn 50).
	// The short window heats up within its horizon; the long window
	// needs enough hot minutes for its average to cross too.
	fired := false
	for m := 0; m < 30; m++ {
		for i := 0; i < 100; i++ {
			tr.Observe(time.Microsecond, i%20 != 0)
		}
		clk.advance(time.Minute)
		s := tr.Snapshot()
		if s.Alerting {
			fired = true
			break
		}
	}
	if !fired {
		t.Fatal("alert never fired during a sustained 50x burn")
	}

	// Phase 3 — recovery: healthy traffic. The short window cools
	// within ~its horizon and the alert clears, long before the long
	// window's burn average decays.
	cleared := false
	for m := 0; m < 10; m++ {
		for i := 0; i < 100; i++ {
			tr.Observe(time.Microsecond, true)
		}
		clk.advance(time.Minute)
		s := tr.Snapshot()
		if !s.Alerting {
			cleared = true
			if s.LongBurn < 1 {
				t.Fatalf("long window forgot the incident too fast: %+v", s)
			}
			break
		}
	}
	if !cleared {
		t.Fatal("alert did not clear after recovery outlasted the short window")
	}
}

// TestSLOShortSpikeDoesNotPage: a burst far shorter than the long
// window pushes the short burn past the threshold but not the long
// one, so no alert fires (the point of multi-window burn rates).
func TestSLOShortSpikeDoesNotPage(t *testing.T) {
	tr, clk := newClockedSLO(time.Millisecond)
	// 55 minutes of healthy traffic...
	for m := 0; m < 55; m++ {
		for i := 0; i < 100; i++ {
			tr.Observe(time.Microsecond, true)
		}
		clk.advance(time.Minute)
	}
	// ...then one hot minute: 10% bad = burn 100 over that minute.
	for i := 0; i < 100; i++ {
		tr.Observe(time.Microsecond, i%10 != 0)
	}
	clk.advance(time.Minute)
	s := tr.Snapshot()
	if s.ShortBurn < sloBurnAlert {
		t.Fatalf("short burn = %v, expected hot (> %v)", s.ShortBurn, sloBurnAlert)
	}
	if s.LongBurn >= sloBurnAlert {
		t.Fatalf("long burn = %v, expected cool", s.LongBurn)
	}
	if s.Alerting {
		t.Fatal("one-minute spike paged despite a cool long window")
	}
}

// TestSLOIdleGap: counts age out after an idle gap longer than the
// long window.
func TestSLOIdleGap(t *testing.T) {
	tr, clk := newClockedSLO(time.Millisecond)
	for i := 0; i < 100; i++ {
		tr.Observe(time.Second, true) // all bad
	}
	clk.advance(2 * time.Hour)
	s := tr.Snapshot()
	if s.LongTotal != 0 || s.LongBurn != 0 {
		t.Fatalf("stale counts survived the gap: %+v", s)
	}
}

func TestSLOTrackerConcurrent(t *testing.T) {
	tr := NewSLOTracker(100 * time.Microsecond)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				tr.Observe(time.Duration(i%200)*time.Microsecond, true)
				if i%100 == 0 {
					tr.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	s := tr.Snapshot()
	if s.ShortTotal != 4*5000 {
		t.Fatalf("total = %d, want %d", s.ShortTotal, 4*5000)
	}
}
