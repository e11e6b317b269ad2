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

// The SLO's fixed shape: a 99.9% objective, burn rates over 5m and 1h,
// and an alert while both burn at 14.4 or more (a 30-day budget gone in
// about two days). Only the latency target varies.
const (
	sloObjective   = 0.999
	sloShortWindow = 5 * time.Minute
	sloLongWindow  = time.Hour
	sloBurnAlert   = 14.4
)

// sloCounts is one epoch of windowed good/total counts.
type sloCounts struct {
	good, total uint64
}

// SLOTracker accounts requests against a latency target and derives
// multi-window burn rates. It is safe for concurrent use.
type SLOTracker struct {
	target time.Duration
	ring   *epochRing[sloCounts]
	// alerting latches between Snapshot calls: it fires when both
	// windows burn at or above sloBurnAlert and clears as soon as the
	// short window cools below it (the SRE reset condition). Guarded by
	// ring.mu.
	alerting bool
}

// NewSLOTracker builds a tracker: a request is good when it completes
// without error within target.
func NewSLOTracker(target time.Duration) *SLOTracker {
	// Epochs at 1/20 of the short window bound the quantization error
	// of both horizons to ≤5% of the short window.
	return &SLOTracker{target: target, ring: newEpochRing(sloShortWindow/20, sloLongWindow,
		func(c *sloCounts) { *c = sloCounts{} })}
}

// Observe accounts one completed request: good when ok and within the
// latency target.
func (t *SLOTracker) Observe(latency time.Duration, ok bool) {
	t.ring.mu.Lock()
	c := t.ring.current()
	c.total++
	if ok && latency <= t.target {
		c.good++
	}
	t.ring.mu.Unlock()
}

// SLOSnapshot is a point-in-time view of the SLO accounting.
type SLOSnapshot struct {
	// ShortBurn and LongBurn are the burn rates over the two windows:
	// the windows' bad-request ratios divided by the error budget
	// (1-sloObjective). 0 when the window saw no traffic.
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
	return badRatio / (1 - sloObjective)
}

// Snapshot computes both windows' burn rates and updates the latched
// alert state.
func (t *SLOTracker) Snapshot() SLOSnapshot {
	t.ring.mu.Lock()
	defer t.ring.mu.Unlock()
	var snap SLOSnapshot
	snap.ShortGood, snap.ShortTotal = t.counts(sloShortWindow)
	snap.LongGood, snap.LongTotal = t.counts(sloLongWindow)
	snap.ShortBurn = t.burnRate(snap.ShortGood, snap.ShortTotal)
	snap.LongBurn = t.burnRate(snap.LongGood, snap.LongTotal)
	if t.alerting {
		if snap.ShortBurn < sloBurnAlert {
			t.alerting = false
		}
	} else if snap.ShortBurn >= sloBurnAlert && snap.LongBurn >= sloBurnAlert {
		t.alerting = true
	}
	snap.Alerting = t.alerting
	return snap
}
