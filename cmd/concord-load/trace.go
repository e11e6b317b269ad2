// The load generator's record layer: per-request latency observations,
// rendered as slowdown summaries. (Latency distributions live in
// obs.QuantileSketch.)
package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Record is one completed request observation. The breakdown fields
// are populated only when the server reported per-request component
// times (HasBreakdown); they decompose SojournUS into dispatcher
// hand-off, queueing, measured service, and preempted-parked time.
type Record struct {
	Class        string
	ServiceUS    float64 // intended (un-instrumented) service time
	SojournUS    float64 // launch to reply, measured at the client
	Preemptions  int
	OnDispatcher bool

	HasBreakdown bool
	HandoffUS    float64
	QueueUS      float64
	RunUS        float64 // measured service time
	PreemptedUS  float64
	IngressUS    float64 // frame read off the socket → runtime submit
	EgressUS     float64 // completion → response flushed (client-side estimate)
}

// Slowdown returns SojournUS/ServiceUS, the paper's headline metric.
func (r Record) Slowdown() float64 {
	if r.ServiceUS <= 0 {
		return math.NaN()
	}
	return r.SojournUS / r.ServiceUS
}

// Log accumulates records; it is safe for concurrent use.
type Log struct {
	mu      sync.Mutex
	records []Record
}

// NewLog returns a log with capacity for n records.
func NewLog(n int) *Log {
	return &Log{records: make([]Record, 0, n)}
}

// Add appends one record.
func (l *Log) Add(r Record) {
	l.mu.Lock()
	l.records = append(l.records, r)
	l.mu.Unlock()
}

// Snapshot returns a copy of the records.
func (l *Log) Snapshot() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Record, len(l.records))
	copy(out, l.records)
	return out
}

// Summary holds percentile statistics over a set of records.
type Summary struct {
	Count               int
	P50, P90, P99, P999 float64 // slowdown percentiles
	MeanSlowdown        float64
	MeanSojournUS       float64
	MeanPreemptions     float64
	DispatcherFrac      float64
}

// Summarize computes slowdown percentiles over the log.
func (l *Log) Summarize() Summary {
	recs := l.Snapshot()
	if len(recs) == 0 {
		nan := math.NaN()
		return Summary{P50: nan, P90: nan, P99: nan, P999: nan, MeanSlowdown: nan, MeanSojournUS: nan}
	}
	slow := make([]float64, 0, len(recs))
	var sumSlow, sumSoj, sumPre, disp float64
	for _, r := range recs {
		s := r.Slowdown()
		if !math.IsNaN(s) {
			slow = append(slow, s)
			sumSlow += s
		}
		sumSoj += r.SojournUS
		sumPre += float64(r.Preemptions)
		if r.OnDispatcher {
			disp++
		}
	}
	sort.Float64s(slow)
	pct := func(p float64) float64 {
		if len(slow) == 0 {
			return math.NaN()
		}
		rank := int(math.Ceil(p / 100 * float64(len(slow))))
		if rank < 1 {
			rank = 1
		}
		return slow[rank-1]
	}
	n := float64(len(recs))
	return Summary{
		Count:           len(recs),
		P50:             pct(50),
		P90:             pct(90),
		P99:             pct(99),
		P999:            pct(99.9),
		MeanSlowdown:    sumSlow / math.Max(1, float64(len(slow))),
		MeanSojournUS:   sumSoj / n,
		MeanPreemptions: sumPre / n,
		DispatcherFrac:  disp / n,
	}
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf(
		"n=%d p50=%.1f p90=%.1f p99=%.1f p99.9=%.1f mean-slowdown=%.1f mean-sojourn=%.1fµs preempts/req=%.2f dispatcher=%.1f%%",
		s.Count, s.P50, s.P90, s.P99, s.P999, s.MeanSlowdown, s.MeanSojournUS, s.MeanPreemptions, 100*s.DispatcherFrac)
}
