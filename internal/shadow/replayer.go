// The background replayer: periodically drains the capture ring,
// replays the window through the counterfactual simulator, and keeps a
// bounded history of results for the operator surface (metrics gauges,
// the kvd SHADOW verb, and the shutdown dump).
package shadow

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// historyCap bounds the retained per-window results; old windows age
// out. Plenty for a dump and for eyeballing trends over SHADOW n.
const historyCap = 64

// Replayer owns the capture ring's consumption side. Start it for
// periodic replay, or drive it manually with ReplayOnce (tests, final
// drain). Safe for concurrent use.
type Replayer struct {
	ring     *CaptureRing
	cfg      Config
	interval time.Duration

	latest  atomic.Pointer[Result]
	windows atomic.Uint64 // windows replayed
	skipped atomic.Uint64 // windows too small to score

	mu      sync.Mutex
	history []Result // newest last

	startOnce sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// NewReplayer builds a replayer draining ring every interval (default
// 1s) under cfg's counterfactual servers.
func NewReplayer(ring *CaptureRing, cfg Config, interval time.Duration) *Replayer {
	if interval <= 0 {
		interval = time.Second
	}
	return &Replayer{
		ring:     ring,
		cfg:      cfg.withDefaults(),
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Start launches the periodic replay loop. Subsequent calls are no-ops.
func (r *Replayer) Start() {
	r.startOnce.Do(func() {
		go func() {
			defer close(r.done)
			t := time.NewTicker(r.interval)
			defer t.Stop()
			for {
				select {
				case <-r.stop:
					return
				case <-t.C:
					r.ReplayOnce()
				}
			}
		}()
	})
}

// Stop halts the loop (if started) and waits for it to exit. A final
// ReplayOnce after Stop scores whatever the ring still holds.
func (r *Replayer) Stop() {
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	r.startOnce.Do(func() { close(r.done) }) // never started: nothing to wait on
	<-r.done
}

// ReplayOnce drains the ring and scores the window synchronously.
// ok is false when the window was too small to score (it still counts
// as skipped).
func (r *Replayer) ReplayOnce() (Result, bool) {
	w := r.ring.TakeWindow()
	res, ok := ReplayWindow(w, r.cfg)
	if !ok {
		r.skipped.Add(1)
		return Result{}, false
	}
	r.windows.Add(1)
	r.latest.Store(&res)
	r.mu.Lock()
	r.history = append(r.history, res)
	if len(r.history) > historyCap {
		r.history = r.history[len(r.history)-historyCap:]
	}
	r.mu.Unlock()
	return res, true
}

// Latest returns the most recent scored window, nil before the first.
func (r *Replayer) Latest() *Result { return r.latest.Load() }

// Results returns up to n retained windows, newest first.
func (r *Replayer) Results(n int) []Result {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n <= 0 || n > len(r.history) {
		n = len(r.history)
	}
	out := make([]Result, n)
	for i := 0; i < n; i++ {
		out[i] = r.history[len(r.history)-1-i]
	}
	return out
}

// Counts reports windows scored and windows skipped (too few samples).
func (r *Replayer) Counts() (windows, skipped uint64) {
	return r.windows.Load(), r.skipped.Load()
}

// shadowDump is the -shadowdump JSON schema.
type shadowDump struct {
	Schema   int      `json:"schema"`
	Policies []string `json:"policies"`
	Rate     int      `json:"capture_rate"`
	Windows  uint64   `json:"windows"`
	Skipped  uint64   `json:"skipped"`
	Offered  uint64   `json:"captures_offered"`
	Captured uint64   `json:"captures_kept"`
	Results  []Result `json:"results"` // newest first
}

// WriteDump serializes the replayer's retained history as indented
// JSON, schema 1.
func (r *Replayer) WriteDump(w io.Writer) error {
	windows, skipped := r.Counts()
	offered, captured := r.ring.Stats()
	d := shadowDump{
		Schema:   1,
		Policies: Policies(),
		Rate:     r.ring.Rate(),
		Windows:  windows,
		Skipped:  skipped,
		Offered:  offered,
		Captured: captured,
		Results:  r.Results(0),
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}
