// The one accumulator of the live measurement stack: a lock-free,
// mergeable log-bucket sketch over positive int64 values. Latencies and
// service times are observed in nanoseconds, flush batches as counts,
// hint-error ratios as fixed-point percentages — the geometry does not
// care about the unit. Rolling windows (tail.go) are rings of sketches
// and /metrics histograms are snapshots collapsed to octaves, so every
// quantile anyone reads comes from SketchSnapshot.Quantile.
//
// Each octave is subdivided into 8 sub-buckets (growth factor 2^(1/8) ≈
// 1.0905). Reporting the geometric midpoint of the winning bucket
// bounds the relative error by 2^(1/16)−1 ≈ 4.4% — inside the 5% the
// actuation contract asks for — while keeping observation wait-free:
// one atomic add on a fixed-size bucket array, no allocation, no mutex,
// mergeable by summing counts.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

const (
	// sketchSubBuckets subdivides each power-of-two octave.
	sketchSubBuckets = 8
	// SketchOctaves covers every positive int64 value.
	SketchOctaves = 64
	// SketchBuckets is the fixed bucket count.
	SketchBuckets = SketchOctaves * sketchSubBuckets
)

// sketchBounds[j] = 2^(j/8): the sub-bucket thresholds within an
// octave, precomputed so Observe never calls math.Log2.
var sketchBounds = func() [sketchSubBuckets]float64 {
	var b [sketchSubBuckets]float64
	for j := range b {
		b[j] = math.Pow(2, float64(j)/sketchSubBuckets)
	}
	return b
}()

// sketchMids[i] = 2^((i+0.5)/8): bucket i's geometric midpoint, the
// value every quantile and dispersion estimate reports for it.
var sketchMids = func() [SketchBuckets]float64 {
	var m [SketchBuckets]float64
	for i := range m {
		m[i] = math.Pow(2, (float64(i)+0.5)/sketchSubBuckets)
	}
	return m
}()

// sketchIndex maps a value to its bucket: bucket i covers
// [2^(i/8), 2^((i+1)/8)), with everything below 1 clamped into bucket 0.
func sketchIndex(v int64) int {
	if v <= 1 {
		return 0
	}
	octave := bits.Len64(uint64(v)) - 1
	frac := float64(v) / float64(uint64(1)<<uint(octave)) // [1, 2)
	sub := sketchSubBuckets - 1
	for j := 1; j < sketchSubBuckets; j++ {
		if frac < sketchBounds[j] {
			sub = j - 1
			break
		}
	}
	return octave*sketchSubBuckets + sub
}

// QuantileSketch is a lock-free log-bucket quantile sketch. Observe is
// wait-free (one atomic add on a fixed array); Snapshot and every query
// on it run off the hot path. The zero value is ready to use.
type QuantileSketch struct {
	buckets [SketchBuckets]atomic.Uint64
	sum     atomic.Int64
}

// Observe adds one observation. Non-positive values clamp into the
// lowest bucket (they still count).
func (s *QuantileSketch) Observe(v int64) {
	s.buckets[sketchIndex(v)].Add(1)
	if v > 0 {
		s.sum.Add(v)
	}
}

// Reset discards every observation. It is not atomic with respect to
// concurrent Observe calls; the rolling-window ring calls it under the
// lock that also serialises that ring's observers.
func (s *QuantileSketch) Reset() {
	for i := range s.buckets {
		s.buckets[i].Store(0)
	}
	s.sum.Store(0)
}

// SketchSnapshot is a point-in-time copy of a sketch, mergeable with
// other snapshots by summing counts. Concurrent observation during a
// snapshot can split a racing observation between Count and Sum; the
// skew is bounded by the in-flight writes, never accumulates, and is
// irrelevant at quantile-query granularity.
type SketchSnapshot struct {
	Buckets [SketchBuckets]uint64
	Count   uint64
	Sum     int64
}

// Snapshot copies the live bucket counts.
func (s *QuantileSketch) Snapshot() SketchSnapshot {
	var out SketchSnapshot
	for i := range s.buckets {
		c := s.buckets[i].Load()
		out.Buckets[i] = c
		out.Count += c
	}
	out.Sum = s.sum.Load()
	return out
}

// Merge folds another snapshot into this one: the result describes the
// union of the two observation sets (the sketch's mergeability
// contract — per-class, per-epoch or per-process sketches combine
// exactly).
func (s *SketchSnapshot) Merge(o SketchSnapshot) {
	for i, c := range o.Buckets {
		s.Buckets[i] += c
	}
	s.Count += o.Count
	s.Sum += o.Sum
}

// Quantile estimates the q-quantile (q in [0,1]), reporting the
// geometric midpoint of the bucket containing the target rank (relative
// error ≤ 2^(1/16)−1 ≈ 4.4%). NaN when empty.
func (s SketchSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return math.NaN()
	}
	q = math.Min(1, math.Max(0, q))
	target := q * float64(s.Count)
	if target < 1 {
		target = 1
	}
	cum := 0.0
	for i, c := range s.Buckets {
		cum += float64(c)
		if c > 0 && cum >= target {
			return sketchMids[i]
		}
	}
	return sketchMids[SketchBuckets-1]
}

// Mean returns the exact mean of all positive observations; NaN when
// empty.
func (s SketchSnapshot) Mean() float64 {
	if s.Count == 0 {
		return math.NaN()
	}
	return float64(s.Sum) / float64(s.Count)
}

// Octaves collapses the sub-buckets: element k counts the observations
// in [2^k, 2^(k+1)) — the resolution histograms are exposed and printed
// at.
func (s SketchSnapshot) Octaves() [SketchOctaves]uint64 {
	var out [SketchOctaves]uint64
	for i, c := range s.Buckets {
		out[i/sketchSubBuckets] += c
	}
	return out
}

// HintErrorScale is the fixed-point scale hint-error ratios are
// observed at: a recorded value of 100 means hint == actual, 10 means
// the hint undershot 10×, 1000 means it overshot 10×. The sketch clamps
// everything below 1 into one bucket; ×100 spreads the under-estimation
// half of the ratio range across real buckets.
const HintErrorScale = 100

// classSketch is one scheduling class's estimator pair.
type classSketch struct {
	svc, hintErr QuantileSketch
}

// ClassSketches bundles a per-scheduling-class service-time sketch and
// hint-error sketch, fed by whoever observes completions (one call per
// successfully completed request). Class indices follow the live
// runtime's SLOClass taxonomy; out-of-range classes fold into class 0
// rather than being dropped.
type ClassSketches struct {
	classes []classSketch
}

// NewClassSketches builds sketches for n scheduling classes (n ≥ 1 is
// forced).
func NewClassSketches(n int) *ClassSketches {
	if n < 1 {
		n = 1
	}
	return &ClassSketches{classes: make([]classSketch, n)}
}

// Observe records one completed request: its scheduling class, its
// measured service time, and the service hint it was submitted with
// (0 = unhinted; unhinted requests feed the service sketch but not the
// hint-error sketch). Safe for concurrent use from every executor.
func (c *ClassSketches) Observe(class int, serviceNS, hintNS int64) {
	if class < 0 || class >= len(c.classes) {
		class = 0
	}
	cs := &c.classes[class]
	cs.svc.Observe(serviceNS)
	if hintNS > 0 && serviceNS > 0 {
		cs.hintErr.Observe(int64(float64(hintNS) / float64(serviceNS) * HintErrorScale))
	}
}

// Service returns the class's service-time sketch (nil when out of
// range), for snapshotting and metric export.
func (c *ClassSketches) Service(class int) *QuantileSketch {
	if class < 0 || class >= len(c.classes) {
		return nil
	}
	return &c.classes[class].svc
}

// HintError returns the class's hint/actual ratio sketch (values scaled
// by HintErrorScale); nil when out of range.
func (c *ClassSketches) HintError(class int) *QuantileSketch {
	if class < 0 || class >= len(c.classes) {
		return nil
	}
	return &c.classes[class].hintErr
}
