// The runtime's clock. Every stamp the runtime takes is an int64 of
// nanotime. Where the CPU's time-stamp counter can be trusted, a reading
// is one rdtsc mapped onto the monotonic clock, the paper's probe;
// elsewhere it is the monotonic clock itself.
package live

import (
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// epoch is the runtime's time origin: every stamp it takes is nanoseconds
// since epoch on the monotonic clock (nanotime), and it never reads the
// wall clock. The one time.Time it hands out, Stamp.Time, is epoch plus
// the elapsed time, so it keeps a monotonic reading and Sub and Since on
// it stay monotonic.
var epoch = time.Now()

// clockShift is added to every reading. It stays zero except in a test
// that moves the clock forward instead of sleeping (advanceClock): an
// atomic load, not a replaceable function, so the seam costs the hot
// path no indirect call.
var clockShift atomic.Int64

// nanotime is the runtime's one clock. Where useTSC holds it reads the
// TSC and maps the ticks through tsc's anchor, and a reading the anchor
// does not cover takes tscClock.slow; elsewhere it is time.Since(epoch).
func nanotime() int64 {
	if useTSC {
		if ns, ok := tsc.mapped(rdtsc()); ok {
			return ns + clockShift.Load()
		}
		return tsc.slow() + clockShift.Load()
	}
	return int64(time.Since(epoch)) + clockShift.Load()
}

// Stamp is one reading of the runtime's clock, as the runtime takes it:
// nanoseconds since its epoch, monotonic only. The runtime stamps each
// response's completion with one (Response.Done) and builds no time.Time
// for it; two stamps subtract to a time.Duration, and Time builds the
// time.Time when one is wanted. The zero Stamp is no reading.
type Stamp int64

// NowStamp is the runtime's clock as a Stamp: a reading to subtract a
// Response.Done from, or to stamp a NetTimed payload with.
func NowStamp() Stamp { return Stamp(nanotime()) }

// Time is the reading as a time.Time: epoch plus the stamp, so it keeps
// epoch's monotonic reading.
func (s Stamp) Time() time.Time { return epoch.Add(time.Duration(s)) }

// IsZero reports whether s is no reading.
func (s Stamp) IsZero() bool { return s == 0 }

// Sub is s.Time().Sub(t): the monotonic distance from t when t has a
// monotonic reading (time.Now, Stamp.Time), and the wall distance
// otherwise.
func (s Stamp) Sub(t time.Time) time.Duration { return s.Time().Sub(t) }

// useTSC is decided once, at start-up: the TSC ticks at a constant rate
// through every power state (invariant), and the kernel keeps
// CLOCK_MONOTONIC on it, so the two advance together and only a linear
// map lies between them. A host without the clocksource file (not
// Linux) reads "" and keeps the monotonic clock.
var useTSC = tscTrusted(tscInvariant(), func() string {
	b, _ := os.ReadFile("/sys/devices/system/clocksource/clocksource0/current_clocksource")
	return string(b)
}())

func tscTrusted(invariant bool, clocksource string) bool {
	return invariant && strings.TrimSpace(clocksource) == "tsc"
}

// tsc is the runtime's mapping of the TSC onto the monotonic clock.
var tsc = tscClock{ticks: rdtsc, mono: func() int64 { return int64(time.Since(epoch)) }}

const (
	// tscWindow is the longest run of ticks one anchor maps (≈ 0.4 ms at
	// 2.5 GHz): a reading further past its anchor recalibrates, so an
	// error in the slope shows for at most this long, and
	// (ticks−t0)·mul cannot overflow.
	tscWindow = 1 << 20
	// tscBrackets is how many bracketed readings of the monotonic clock a
	// calibration takes; it keeps the narrowest.
	tscBrackets = 4
	// tscRefit is how many ticks back the fit's far end reaches at most
	// (≈ 1.7 s at 2.5 GHz, and never less than half of it once that has
	// passed): long enough that bracket widths of tens of nanoseconds
	// leave the slope's error negligible, short enough that the slope
	// follows the kernel slewing the monotonic clock.
	tscRefit = 1 << 32
)

// tscClock maps TSC ticks onto monotonic nanoseconds since epoch. The
// published anchor maps a reading of ticks in [t0, t0+lim) to
// n0 + (ticks−t0)·mul>>32, where mul is nanoseconds per tick in 32.32
// fixed point. A reader loads the anchor between two loads of seq, which
// is odd while publish writes it: no lock and no allocation, and a torn
// or stale read goes to slow.
type tscClock struct {
	seq          atomic.Uint64
	t0, mul, lim atomic.Uint64 // lim 0: no anchor
	n0           atomic.Int64

	mu    sync.Mutex // serialises slow; guards the fields below
	ticks func() uint64
	mono  func() int64 // the monotonic clock
	// Two calibration points, each a reading of the monotonic clock (N)
	// and the TSC at it (T): far is where the fit starts, and near takes
	// its place each time near is tscRefit/2 old.
	farT, nearT uint64
	farN, nearN int64
	fitMul      uint64 // the last fit's slope; 0 once the fit restarts
	floor       int64  // no reading handed out so far lies above it
}

// mapped maps ticks through the published anchor; ok is false when the
// anchor does not cover them.
func (c *tscClock) mapped(ticks uint64) (ns int64, ok bool) {
	s, d := c.seq.Load(), ticks-c.t0.Load()
	return c.n0.Load() + int64(d*c.mul.Load()>>32), d < c.lim.Load() && s&1 == 0 && c.seq.Load() == s
}

// slow answers a reading the anchor does not cover: there is none yet,
// the reading is past its window or before it (the TSC went back), or it
// raced a publish. It fits the slope from far to a fresh calibration
// point and publishes an anchor there that starts no lower than floor,
// its slope bent to meet the fit by the window's end, so readings never
// go backwards and one anchor's error does not carry into the next. When
// the TSC goes back, or jumps against the monotonic clock (the fit then
// spans the jump and leaves the last one's slope), it restarts the fit.
// Until a fit spans tscWindow ticks it answers from the monotonic clock,
// but never below floor, so after such a step readings hold at most one
// window ahead until the monotonic clock passes them.
func (c *tscClock) slow() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ns, ok := c.mapped(c.ticks()); ok {
		return ns // published while this caller waited
	}
	t, n := c.calibrate()
	span := t - c.farT
	mul := uint64(float64(n-c.farN) / float64(span) * (1 << 32))
	switch {
	case c.farT == 0 || t < c.t0.Load() ||
		c.fitMul != 0 && (mul > c.fitMul+c.fitMul>>10 || mul < c.fitMul-c.fitMul>>10):
		c.farT, c.farN, c.nearT, c.nearN, c.fitMul = t, n, t, n, 0
		c.publish(t, 0, 0, 0)
	case span >= tscWindow:
		c.fitMul = mul
		n0 := max(n, c.floor)
		lim := min(tscWindow, span/16) // a short fit maps a short window
		mul -= min(uint64(n0-n)<<32/lim, mul/2)
		c.publish(t, n0, mul, lim)
		c.floor = n0 + int64(lim*mul>>32)
		if t-c.nearT >= tscRefit/2 {
			c.farT, c.farN, c.nearT, c.nearN = c.nearT, c.nearN, t, n
		}
		return n0
	}
	c.floor = max(c.floor, n)
	return c.floor
}

// calibrate reads the monotonic clock, n, between two TSC reads
// tscBrackets times and keeps the narrowest bracket, taking its midpoint
// as the reading's TSC, t.
func (c *tscClock) calibrate() (t uint64, n int64) {
	width := ^uint64(0)
	for i := 0; i < tscBrackets; i++ {
		a, m := c.ticks(), c.mono()
		if b := c.ticks(); b-a < width {
			width, t, n = b-a, a+(b-a)/2, m
		}
	}
	return t, n
}

func (c *tscClock) publish(t0 uint64, n0 int64, mul, lim uint64) {
	c.seq.Add(1)
	c.t0.Store(t0)
	c.n0.Store(n0)
	c.mul.Store(mul)
	c.lim.Store(lim)
	c.seq.Add(1)
}
