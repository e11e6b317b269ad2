package obs

import (
	"sync"
	"testing"
	"time"
)

func newClockedSLO(cfg SLOConfig) (*SLOTracker, *fakeClock) {
	tr := NewSLOTracker(cfg)
	clk := &fakeClock{}
	tr.ring.now = clk.now
	return tr, clk
}

func TestSLOConfigDefaults(t *testing.T) {
	cfg := SLOConfig{Target: 200 * time.Microsecond}.withDefaults()
	if cfg.Objective != 0.999 {
		t.Fatalf("default objective = %v", cfg.Objective)
	}
	if cfg.ShortWindow != 5*time.Minute || cfg.LongWindow != time.Hour {
		t.Fatalf("default windows = %v/%v, want 5m/1h", cfg.ShortWindow, cfg.LongWindow)
	}
	if cfg.BurnAlert != 14.4 {
		t.Fatalf("default burn alert = %v", cfg.BurnAlert)
	}
}

func TestSLOTrackerEmpty(t *testing.T) {
	tr, _ := newClockedSLO(SLOConfig{Target: time.Millisecond})
	s := tr.Snapshot()
	if s.ShortBurn != 0 || s.LongBurn != 0 || s.Alerting {
		t.Fatalf("empty tracker snapshot = %+v", s)
	}
}

// TestSLOBurnRateValues: with a 0.99 objective (1% budget), a 2% bad
// ratio burns at 2.0, a 100% bad ratio at 100.
func TestSLOBurnRateValues(t *testing.T) {
	tr, _ := newClockedSLO(SLOConfig{Target: time.Millisecond, Objective: 0.99})
	for i := 0; i < 98; i++ {
		tr.Observe(time.Microsecond, true)
	}
	tr.Observe(time.Second, true) // over target
	tr.Observe(time.Microsecond, false)
	s := tr.Snapshot()
	if s.ShortGood != 98 || s.ShortTotal != 100 {
		t.Fatalf("good/total = %d/%d, want 98/100", s.ShortGood, s.ShortTotal)
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
	cfg := SLOConfig{
		Target:      time.Millisecond,
		Objective:   0.99, // 1% budget
		ShortWindow: 5 * time.Minute,
		LongWindow:  time.Hour,
		BurnAlert:   10,
	}
	tr, clk := newClockedSLO(cfg)

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

	// Phase 2 — incident: 50% of requests breach the target (burn 50).
	// The short window heats up within its horizon; the long window
	// needs enough hot minutes for its average to cross too.
	fired := false
	for m := 0; m < 30; m++ {
		for i := 0; i < 100; i++ {
			tr.Observe(time.Microsecond, i%2 == 0)
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
	cfg := SLOConfig{
		Target:      time.Millisecond,
		Objective:   0.99,
		ShortWindow: 5 * time.Minute,
		LongWindow:  time.Hour,
		BurnAlert:   10,
	}
	tr, clk := newClockedSLO(cfg)
	// 55 minutes of healthy traffic...
	for m := 0; m < 55; m++ {
		for i := 0; i < 100; i++ {
			tr.Observe(time.Microsecond, true)
		}
		clk.advance(time.Minute)
	}
	// ...then one hot minute: 100% bad = burn 100 over that minute.
	for i := 0; i < 100; i++ {
		tr.Observe(time.Second, true)
	}
	clk.advance(time.Minute)
	s := tr.Snapshot()
	if s.ShortBurn < cfg.BurnAlert {
		t.Fatalf("short burn = %v, expected hot (> %v)", s.ShortBurn, cfg.BurnAlert)
	}
	if s.LongBurn >= cfg.BurnAlert {
		t.Fatalf("long burn = %v, expected cool", s.LongBurn)
	}
	if s.Alerting {
		t.Fatal("one-minute spike paged despite a cool long window")
	}
}

// TestSLOIdleGap: counts age out after an idle gap longer than the
// long window.
func TestSLOIdleGap(t *testing.T) {
	tr, clk := newClockedSLO(SLOConfig{Target: time.Millisecond, Objective: 0.99})
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
	tr := NewSLOTracker(SLOConfig{Target: 100 * time.Microsecond, Objective: 0.999})
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
