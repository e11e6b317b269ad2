// TailTracker is the time-windowed observability layer's entry point:
// one Observe per delivered response feeds the rolling-window latency
// sketch and the SLO burn-rate accounting. Whoever observes completions
// calls it (concord-kvd, from its connection layer's completion hook).
package obs

import (
	"sort"
	"time"
)

// DefaultWindows are the rolling horizons surfaced when none are
// configured: the "right now" view, the smoothing view, and the
// minute trend.
func DefaultWindows() []time.Duration {
	return []time.Duration{time.Second, 10 * time.Second, time.Minute}
}

// TailTracker is a rolling latency sketch — a ring of QuantileSketch
// epochs sized to a set of query windows — with an optional SLOTracker.
// It is safe for concurrent use.
//
// The ring holds one 4 KiB sketch per epoch: 241 epochs (≈1 MiB) at the
// default 1s/10s/60s windows, 5 (≈20 KiB) for a 1s-only tracker.
type TailTracker struct {
	ring    *epochRing[QuantileSketch]
	windows []time.Duration
	slo     *SLOTracker
}

// NewTailTracker builds a tracker for the given query windows (nil
// means DefaultWindows) and an optional SLO. The ring's epoch is a
// quarter of the shortest window and its span the longest one; the SLO
// horizons live in the SLOTracker's own (counts-only) ring.
func NewTailTracker(windows []time.Duration, slo *SLOTracker) *TailTracker {
	if len(windows) == 0 {
		windows = DefaultWindows()
	}
	windows = append([]time.Duration(nil), windows...)
	sort.Slice(windows, func(i, j int) bool { return windows[i] < windows[j] })
	return &TailTracker{
		ring:    newEpochRing(windows[0]/4, windows[len(windows)-1], (*QuantileSketch).Reset),
		windows: windows,
		slo:     slo,
	}
}

// Windows returns the configured query horizons, ascending.
func (t *TailTracker) Windows() []time.Duration { return t.windows }

// SLO returns the tracker's SLO accounting, or nil.
func (t *TailTracker) SLO() *SLOTracker { return t.slo }

// Observe accounts one delivered response.
func (t *TailTracker) Observe(latency time.Duration, ok bool) {
	t.ring.mu.Lock()
	t.ring.current().Observe(int64(latency))
	t.ring.mu.Unlock()
	if t.slo != nil {
		t.slo.Observe(latency, ok)
	}
}

// Snapshot merges the epochs covering the trailing window into one
// latency snapshot in nanoseconds. A window longer than the longest
// configured one is clamped to it; an idle window yields an empty
// snapshot (Count 0, NaN quantiles).
//
// A minute's window is 241 sketches of 512 counters, a third of a
// millisecond to copy — far too long to stall every completing worker
// on the ring lock. So the lock is held only to pick the live epochs;
// each sketch is then copied without it (its counters are atomics) and
// kept only if its slot still holds the same epoch afterwards. A slot
// is reset and renumbered in one critical section and epoch numbers
// only grow, so an unchanged number means no reset began before the
// copy ended; a changed one means the epoch has just aged out of every
// window anyway.
func (t *TailTracker) Snapshot(window time.Duration) SketchSnapshot {
	r := t.ring
	type epochRef struct {
		slot int
		num  int64
	}
	var live []epochRef
	r.mu.Lock()
	r.each(window, func(i int, _ *QuantileSketch) { live = append(live, epochRef{i, r.nums[i]}) })
	r.mu.Unlock()
	var out SketchSnapshot
	for _, e := range live {
		snap := r.slots[e.slot].Snapshot()
		r.mu.Lock()
		unchanged := r.nums[e.slot] == e.num
		r.mu.Unlock()
		if unchanged {
			out.Merge(snap)
		}
	}
	return out
}
