// SLO error-budget accounting in the Google SRE style: every request is
// good or bad against a latency target, the tracker keeps windowed
// good/total counts, and burn rate is how fast the error budget is being
// consumed relative to the objective (burn 1.0 = exactly spending the
// budget over the window; 14.4 over 5m+1h is the classic page
// threshold). Alerting requires both the short and the long window to
// burn hot — the short window makes the alert fast to clear, the long
// one keeps a brief spike from paging.
package obs

import "time"

// SLOConfig describes one latency SLO.
type SLOConfig struct {
	// Target is the latency bound: a request is good when it completes
	// without error within Target.
	Target time.Duration
	// Objective is the good-ratio goal, e.g. 0.999 for "99.9% of
	// requests within Target". The error budget is 1-Objective.
	Objective float64
	// ShortWindow and LongWindow are the two burn-rate horizons.
	// Defaults: 5m and 1h.
	ShortWindow, LongWindow time.Duration
	// BurnAlert is the burn-rate threshold; the tracker alerts while
	// both windows burn at or above it. Default 14.4 (consumes a
	// 30-day budget in ~2 days).
	BurnAlert float64
}

func (c SLOConfig) withDefaults() SLOConfig {
	if c.Objective <= 0 || c.Objective >= 1 {
		c.Objective = 0.999
	}
	if c.ShortWindow <= 0 {
		c.ShortWindow = 5 * time.Minute
	}
	if c.LongWindow <= c.ShortWindow {
		c.LongWindow = 12 * c.ShortWindow
	}
	if c.BurnAlert <= 0 {
		c.BurnAlert = 14.4
	}
	return c
}

// sloCounts is one epoch of windowed good/total counts.
type sloCounts struct {
	good, total uint64
}

// SLOTracker accounts requests against an SLOConfig and derives
// multi-window burn rates. It is safe for concurrent use.
type SLOTracker struct {
	cfg  SLOConfig
	ring *epochRing[sloCounts]
	// alerting latches between Snapshot calls: it fires when both
	// windows burn at or above BurnAlert and clears as soon as the
	// short window cools below it (the SRE reset condition). Guarded by
	// ring.mu.
	alerting bool
}

// NewSLOTracker builds a tracker; zero-valued config fields take the
// documented defaults.
func NewSLOTracker(cfg SLOConfig) *SLOTracker {
	cfg = cfg.withDefaults()
	// Epochs at 1/20 of the short window bound the quantization error
	// of both horizons to ≤5% of the short window.
	return &SLOTracker{cfg: cfg, ring: newEpochRing(cfg.ShortWindow/20, cfg.LongWindow,
		func(c *sloCounts) { *c = sloCounts{} })}
}

// Observe accounts one completed request: good when ok and within the
// latency target.
func (t *SLOTracker) Observe(latency time.Duration, ok bool) {
	t.ring.mu.Lock()
	c := t.ring.current()
	c.total++
	if ok && latency <= t.cfg.Target {
		c.good++
	}
	t.ring.mu.Unlock()
}

// SLOSnapshot is a point-in-time view of the SLO accounting.
type SLOSnapshot struct {
	// ShortBurn and LongBurn are the burn rates over the two windows:
	// the windows' bad-request ratios divided by the error budget
	// (1-Objective). 0 when the window saw no traffic.
	ShortBurn, LongBurn float64
	// Good/Total counts over each window.
	ShortGood, ShortTotal uint64
	LongGood, LongTotal   uint64
	// Alerting reports the latched multi-window alert state.
	Alerting bool
}

// counts sums good/total over the trailing window. Callers hold
// ring.mu.
func (t *SLOTracker) counts(window time.Duration) (good, total uint64) {
	t.ring.each(window, func(_ int, c *sloCounts) {
		good += c.good
		total += c.total
	})
	return good, total
}

// burnRate converts windowed counts to a burn rate against the budget.
func (t *SLOTracker) burnRate(good, total uint64) float64 {
	if total == 0 {
		return 0
	}
	badRatio := float64(total-good) / float64(total)
	return badRatio / (1 - t.cfg.Objective)
}

// Snapshot computes both windows' burn rates and updates the latched
// alert state.
func (t *SLOTracker) Snapshot() SLOSnapshot {
	t.ring.mu.Lock()
	defer t.ring.mu.Unlock()
	var snap SLOSnapshot
	snap.ShortGood, snap.ShortTotal = t.counts(t.cfg.ShortWindow)
	snap.LongGood, snap.LongTotal = t.counts(t.cfg.LongWindow)
	snap.ShortBurn = t.burnRate(snap.ShortGood, snap.ShortTotal)
	snap.LongBurn = t.burnRate(snap.LongGood, snap.LongTotal)
	if t.alerting {
		if snap.ShortBurn < t.cfg.BurnAlert {
			t.alerting = false
		}
	} else if snap.ShortBurn >= t.cfg.BurnAlert && snap.LongBurn >= t.cfg.BurnAlert {
		t.alerting = true
	}
	snap.Alerting = t.alerting
	return snap
}
