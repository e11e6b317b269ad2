// Time-windowed accounting: a ring of rotating per-epoch accumulators.
// Cumulative counters answer "what has happened since process start";
// an epochRing answers "what happened over the last W" — the real-time
// view that microsecond-scale scheduling decisions (RackSched,
// LibPreemptible) and SLO burn-rate accounting both need. The rolling
// latency sketch (TailTracker) and the SLO good/total counts
// (SLOTracker) are the two instantiations.
package obs

import (
	"sync"
	"time"
)

// procStart anchors the package's monotonic clock; readings are
// nanoseconds since an arbitrary epoch and never go backwards.
var procStart = time.Now()

// monotonicNS is the default clock for windowed estimators.
func monotonicNS() int64 { return int64(time.Since(procStart)) }

// epochRing is a rolling window over accumulators of type T:
// observations land in the epoch covering "now", and a window query
// visits the epochs spanning the window, skipping anything older. Slots
// are reused in place — rotation resets a stale slot rather than
// allocating, so the steady state allocates nothing, idle periods cost
// nothing, and old samples never leak into fresh windows.
//
// The view is conservative in time: a window of W visits the
// ceil(W/epoch) most recent epochs including the partially-filled
// current one, so it covers between W-epoch and W of history.
//
// mu guards the slot numbers and serialises rotation against both
// observers and readers; callers hold it around current and each. (A
// reader whose accumulator is safe to read concurrently may copy slots
// outside the lock and revalidate their numbers — TailTracker.Snapshot.)
type epochRing[T any] struct {
	mu      sync.Mutex
	epochNS int64
	nums    []int64 // absolute epoch each slot holds; -1 when never used
	slots   []T
	reset   func(*T)
	now     func() int64 // monotonic ns; injected by tests
}

// newEpochRing returns a ring with the given epoch granularity covering
// at least span of history. Epoch is clamped to ≥1ms; span to ≥epoch.
func newEpochRing[T any](epoch, span time.Duration, reset func(*T)) *epochRing[T] {
	if epoch < time.Millisecond {
		epoch = time.Millisecond
	}
	if span < epoch {
		span = epoch
	}
	// +1 slot so the current partial epoch never evicts a slot still
	// inside the longest window.
	n := int(span/epoch) + 1
	r := &epochRing[T]{epochNS: int64(epoch), nums: make([]int64, n), slots: make([]T, n), reset: reset, now: monotonicNS}
	for i := range r.nums {
		r.nums[i] = -1
	}
	return r
}

// current returns the slot for the epoch covering now, resetting it in
// place if it still holds an older epoch.
func (r *epochRing[T]) current() *T {
	e := r.now() / r.epochNS
	i := e % int64(len(r.slots))
	if r.nums[i] != e {
		r.reset(&r.slots[i])
		r.nums[i] = e
	}
	return &r.slots[i]
}

// each visits the live epochs covering the trailing window, oldest
// first, with each one's slot index. A window longer than the ring is
// clamped to it; slots stale after an idle gap are skipped, not visited.
func (r *epochRing[T]) each(window time.Duration, visit func(i int, slot *T)) {
	k := (int64(window) + r.epochNS - 1) / r.epochNS
	if k < 1 {
		k = 1
	}
	if max := int64(len(r.slots)); k > max {
		k = max
	}
	e := r.now() / r.epochNS
	for n := e - k + 1; n <= e; n++ {
		if n < 0 {
			continue
		}
		if i := int(n % int64(len(r.slots))); r.nums[i] == n {
			visit(i, &r.slots[i])
		}
	}
}
