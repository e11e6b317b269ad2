// Package stats computes the latency metrics the paper reports: request
// slowdown (total time at the server over un-instrumented service time),
// percentiles (p50/p99/p99.9) — exact or reservoir-sampled — and
// load-sweep summaries including the maximum throughput sustainable
// under a tail-slowdown SLO.
package stats

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"concord/internal/sim"
)

// DefaultSLOSlowdown is the paper's service level objective: 99.9th
// percentile slowdown of 50× the service time (§5.1).
const DefaultSLOSlowdown = 50.0

// DefaultReservoirSize is the retained-sample bound for streaming
// collectors. Runs at or below the bound retain every sample and are
// therefore exact; the bound sits above the paper-fidelity 120k
// requests per load point, so subsampling only kicks in for larger
// custom runs (where ~131 retained tail points still resolve p99.9)
// and SLO crossings near flat curve regions are not perturbed at
// standard fidelity.
const DefaultReservoirSize = 1 << 17

// Sample is one completed request's latency record. It holds no
// pointer, so a run's sample slice is one allocation the garbage
// collector never scans.
type Sample struct {
	Slowdown  float64 // sojourn / uninstrumented service time
	SojournUS float64 // total time at the server
}

// Collector accumulates per-request samples for one run.
//
// In exact mode (NewCollector) every sample is retained and percentiles
// are exact. In reservoir mode (NewReservoir) at most `limit` samples
// are retained via Vitter's algorithm R with a deterministic, seeded
// RNG, so a long run no longer holds every per-request record; counts
// and the mean remain exact, percentiles become sampled estimates once
// the reservoir overflows. Determinism: the retained set is a pure
// function of the seed and the Add sequence.
type Collector struct {
	samples []Sample
	sorted  bool

	count int     // total samples offered to Add
	sum   float64 // running slowdown sum over ALL samples

	limit int      // 0 = exact mode (retain everything)
	rng   *sim.RNG // eviction choices in reservoir mode
}

// NewCollector returns an exact collector with capacity for n samples.
func NewCollector(n int) *Collector {
	if n < 0 {
		n = 0
	}
	return &Collector{samples: make([]Sample, 0, n)}
}

// NewReservoir returns a streaming collector retaining at most limit
// samples (DefaultReservoirSize if limit <= 0), with room for the n
// samples its run expects (at most limit) allocated up front, so a run
// that offers no more than n never grows it. The seed makes the sampled
// retained set reproducible.
func NewReservoir(limit, n int, seed uint64) *Collector {
	if limit <= 0 {
		limit = DefaultReservoirSize
	}
	return &Collector{
		samples: make([]Sample, 0, min(max(n, 0), limit)),
		limit:   limit,
		rng:     sim.NewRNG(sim.Mix64(seed, 0x57a75)),
	}
}

// Add records one completed request.
func (c *Collector) Add(s Sample) {
	c.count++
	c.sum += s.Slowdown
	if c.limit == 0 || len(c.samples) < c.limit {
		c.samples = append(c.samples, s)
		c.sorted = false
		return
	}
	// Algorithm R: keep the new sample with probability limit/count,
	// evicting a uniformly random retained one.
	if j := c.rng.Intn(c.count); j < c.limit {
		c.samples[j] = s
		c.sorted = false
	}
}

// Len returns the number of samples offered to the collector (not the
// number retained; see Retained).
func (c *Collector) Len() int { return c.count }

// Retained returns the number of samples currently held. It equals
// Len() for exact collectors and for reservoir collectors that have not
// overflowed.
func (c *Collector) Retained() int { return len(c.samples) }

// Exact reports whether the collector still holds every sample it was
// offered (always true in exact mode).
func (c *Collector) Exact() bool { return c.count == len(c.samples) }

// Samples returns the retained samples (in unspecified order). The
// returned slice is owned by the collector; callers must not modify it.
func (c *Collector) Samples() []Sample { return c.samples }

func (c *Collector) ensureSorted() {
	if !c.sorted {
		slices.SortFunc(c.samples, func(a, b Sample) int {
			return cmp.Compare(a.Slowdown, b.Slowdown)
		})
		c.sorted = true
	}
}

// SlowdownPercentile returns the p-th percentile slowdown (p in (0,100]),
// computed by the nearest-rank method over the retained samples (exact
// unless the reservoir overflowed). It returns NaN if no samples were
// recorded.
func (c *Collector) SlowdownPercentile(p float64) float64 {
	if len(c.samples) == 0 {
		return math.NaN()
	}
	if p <= 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of range (0,100]", p))
	}
	c.ensureSorted()
	rank := int(math.Ceil(p / 100 * float64(len(c.samples))))
	if rank < 1 {
		rank = 1
	}
	return c.samples[rank-1].Slowdown
}

// MeanSlowdown returns the average slowdown over every sample offered
// (exact in both modes), or NaN with no samples.
func (c *Collector) MeanSlowdown() float64 {
	if c.count == 0 {
		return math.NaN()
	}
	return c.sum / float64(c.count)
}

// Point is one load point in a sweep: offered load and measured tail
// behaviour, mirroring one x-position in the paper's figures.
type Point struct {
	OfferedKRps    float64 // offered load in thousand requests/second
	AchievedKRps   float64 // completed throughput
	P50            float64 // median slowdown
	P99            float64
	P999           float64 // the paper's headline metric
	Mean           float64
	Samples        int
	DispatcherBusy float64 // fraction of time the dispatcher was busy
	WorkerIdle     float64 // mean fraction of time workers sat idle
	StolenFrac     float64 // fraction of requests processed by the dispatcher
	Preemptions    float64 // mean preemptions per request
}

// Curve is a load sweep for one system: the data behind one line in a
// slowdown-vs-load figure.
type Curve struct {
	System string
	Points []Point
}

// MaxLoadUnderSLO returns the largest offered load whose p99.9 slowdown
// meets the SLO, using linear interpolation between the last passing and
// first failing points (the paper's "throughput at target slowdown").
// ok is false if no point meets the SLO.
func (c Curve) MaxLoadUnderSLO(slo float64) (kRps float64, ok bool) {
	best := math.NaN()
	for i, p := range c.Points {
		if math.IsNaN(p.P999) {
			continue
		}
		if p.P999 <= slo {
			best = p.OfferedKRps
			ok = true
			// Interpolate toward the next failing point, if any.
			if i+1 < len(c.Points) {
				n := c.Points[i+1]
				if !math.IsNaN(n.P999) && n.P999 > slo && n.P999 != p.P999 {
					frac := (slo - p.P999) / (n.P999 - p.P999)
					cand := p.OfferedKRps + frac*(n.OfferedKRps-p.OfferedKRps)
					if cand > best {
						best = cand
					}
				}
			}
		}
	}
	return best, ok
}

// Improvement returns the relative throughput gain of curve a over curve
// b at the given SLO, e.g. 0.52 for "52% greater throughput".
func Improvement(a, b Curve, slo float64) (float64, error) {
	la, oka := a.MaxLoadUnderSLO(slo)
	lb, okb := b.MaxLoadUnderSLO(slo)
	if !oka || !okb {
		return 0, fmt.Errorf("stats: curve never meets SLO %.0f (a ok=%v, b ok=%v)", slo, oka, okb)
	}
	if lb == 0 {
		return 0, fmt.Errorf("stats: baseline sustains zero load")
	}
	return la/lb - 1, nil
}
