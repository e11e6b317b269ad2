// The capture ring: a sampled record of admitted-and-completed
// requests, detailed enough for the counterfactual replayer to
// reconstruct the offered load — arrival spacing,
// scheduling class, service hint, true measured service time — and
// compare what latency *was* (LatencyNS) against what the deterministic
// simulator says it *could have been* under a different discipline.
//
// Sampling contract: completions are counted on a shared atomic and
// every Rate-th one is captured, so the sampled arrival process is a
// p-thinning of the true one (a thinned Poisson process is Poisson at
// rate λ/Rate — the replayer's counterfactuals see a statistically
// faithful, proportionally lighter offered load). Capture itself is a
// short uncontended mutex append off the sampling fast path; requests
// that are never sampled pay exactly one atomic increment. The ring
// takes prebuilt records from whoever observes completions (concord-kvd
// builds them from each live.Response), so it reads no runtime state.
package shadow

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// CaptureRec is one sampled request, in the replayer's vocabulary.
// Times are nanoseconds; ArrivalNS is the arrival on the offerer's own
// clock (the replayer keys on arrival *spacing*, so only differences
// matter).
type CaptureRec struct {
	ArrivalNS  int64 `json:"arrival_ns"`
	Class      uint8 `json:"class"`
	HintNS     int64 `json:"hint_ns,omitempty"`     // 0 = unhinted
	ServiceNS  int64 `json:"service_ns"`            // measured run time
	LatencyNS  int64 `json:"latency_ns"`            // achieved sojourn
	DeadlineNS int64 `json:"deadline_ns,omitempty"` // allowed sojourn budget; 0 = none
}

// CaptureWindow is one drained capture interval: the sampled records in
// arrival order plus enough accounting to place them in time.
type CaptureWindow struct {
	// Start is when the window opened.
	Start time.Time
	// Span is how long the window was open.
	Span time.Duration
	// Offered counts every completion the ring saw during the window,
	// sampled or not — Offered/len(Recs) ≈ the sampling rate, letting
	// the replayer reason about the thinning factor.
	Offered uint64
	// Recs are the sampled records, sorted by arrival.
	Recs []CaptureRec
}

// CaptureRing samples completed requests into a fixed-capacity ring for
// periodic counterfactual replay. Safe for concurrent use from every
// executor; TakeWindow drains and re-opens the window.
type CaptureRing struct {
	rate uint64
	tick atomic.Uint64 // completions offered, lifetime
	kept atomic.Uint64 // records captured, lifetime (incl. overwritten)

	mu     sync.Mutex
	start  time.Time // when the window opened
	tick0  uint64    // tick at window open, for per-window Offered
	buf    []CaptureRec
	next   int // ring cursor
	filled int
}

// NewCaptureRing builds a ring keeping up to capacity sampled records,
// capturing one completion in rate (rate ≤ 1 captures everything).
func NewCaptureRing(capacity, rate int) *CaptureRing {
	if capacity <= 0 {
		capacity = 4096
	}
	if rate < 1 {
		rate = 1
	}
	return &CaptureRing{
		rate:  uint64(rate),
		start: time.Now(),
		buf:   make([]CaptureRec, capacity),
	}
}

// Rate returns the configured 1-in-N sampling rate.
func (r *CaptureRing) Rate() int { return int(r.rate) }

// Stats returns lifetime counters: completions offered to the ring and
// records sampled into it (including ones later overwritten or
// drained).
func (r *CaptureRing) Stats() (offered, captured uint64) {
	return r.tick.Load(), r.kept.Load()
}

// Offer counts one completion and samples rec into the ring if it is
// the rate-th. Safe to call from every completing goroutine at once.
func (r *CaptureRing) Offer(rec CaptureRec) {
	if r.tick.Add(1)%r.rate != 0 {
		return
	}
	r.kept.Add(1)
	r.mu.Lock()
	r.buf[r.next] = rec
	r.next = (r.next + 1) % len(r.buf)
	if r.filled < len(r.buf) {
		r.filled++
	}
	r.mu.Unlock()
}

// TakeWindow drains the ring: it returns every sampled record since the
// last drain (arrival-sorted) and re-opens the window. When the ring
// wrapped, the oldest records were overwritten and the window holds the
// most recent capacity's worth.
func (r *CaptureRing) TakeWindow() CaptureWindow {
	now := time.Now()
	tick := r.tick.Load()
	r.mu.Lock()
	w := CaptureWindow{
		Start:   r.start,
		Span:    now.Sub(r.start),
		Offered: tick - r.tick0,
		Recs:    make([]CaptureRec, 0, r.filled),
	}
	if r.filled < len(r.buf) {
		w.Recs = append(w.Recs, r.buf[:r.filled]...)
	} else {
		// Oldest-first: the cursor points at the oldest record.
		w.Recs = append(w.Recs, r.buf[r.next:]...)
		w.Recs = append(w.Recs, r.buf[:r.next]...)
	}
	r.filled, r.next = 0, 0
	r.start = now
	r.tick0 = tick
	r.mu.Unlock()
	sort.SliceStable(w.Recs, func(i, j int) bool { return w.Recs[i].ArrivalNS < w.Recs[j].ArrivalNS })
	return w
}
