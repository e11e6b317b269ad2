package live

import (
	"math"
	"sync"
	"testing"
	"time"
)

// fakeTSC is a TSC and a monotonic clock driven by one virtual time, tau
// ticks since the start. Reading the counter takes one tick. Reading the
// monotonic clock takes 2·maxStep ticks and returns the clock at a
// point inside that call drawn deterministically at random, so every
// calibration bracket is as wide and its midpoint is up to maxStep+1
// ticks off the reading, to either side. The monotonic clock runs at
// rate ns per tick until slewAt, and at rate·(1+slew) after it; the
// counter reads tau plus skew, which a test moves to make it jump or step
// back.
type fakeTSC struct {
	tau, skew, rng uint64
	maxStep        uint64
	rate, slew     float64
	slewAt         uint64
}

// fakeTSCBase keeps the counter far from zero, as a real one is.
const fakeTSCBase = 1 << 40

func (f *fakeTSC) next() uint64 {
	f.rng ^= f.rng << 13
	f.rng ^= f.rng >> 7
	f.rng ^= f.rng << 17
	return f.rng
}

func (f *fakeTSC) wait(d uint64) { f.tau += d }

func (f *fakeTSC) ticks() uint64 { f.tau++; return fakeTSCBase + f.tau + f.skew }

func (f *fakeTSC) mono() int64 {
	ns := f.truth(f.tau + f.next()%(2*f.maxStep+1))
	f.tau += 2 * f.maxStep
	return ns
}

// truth is the monotonic clock at tau.
func (f *fakeTSC) truth(tau uint64) int64 {
	ns := f.rate * float64(tau)
	if tau > f.slewAt {
		ns += f.rate * f.slew * float64(tau-f.slewAt)
	}
	return int64(ns)
}

// readTSC is nanotime on c: the fast path, else slow.
func readTSC(c *tscClock) int64 {
	if ns, ok := c.mapped(c.ticks()); ok {
		return ns
	}
	return c.slow()
}

// TestTSCMapping drives a tscClock from a fakeTSC through some eight
// seconds of virtual time — runs of close reads spanning several windows,
// and idle gaps of up to four windows, so it crosses thousands of anchors
// and moves its fit's far end — and checks every reading against the
// monotonic clock over the read. Rows slew the monotonic clock (the
// slower one by enough that an anchor that did not bend back onto its
// fit would drift past the bound), or make the counter jump or step back.
//
// The bound: a calibration point's reading is off by at most h, maxStep+1
// ticks of monotonic time; its fitted slope is off by at most 2h over
// the fit's span and the anchor maps a sixteenth of that span at most,
// so the fit adds h/8 by a window's end; a slew adds its change of rate
// over one window. An anchor starts at most where the last one ended
// (h + h/8 + slew off) and bends back onto its fit by its own end, so
// its error is h + h/8 + one slew to either side, plus what that start
// adds: 1.25h + 2·tscWindow·Δrate in all, and 2 ns of rounding. After
// the counter jumps or steps back, a reading may instead hold at the end
// of the window it left (held), never going back, until the monotonic
// clock passes that.
func TestTSCMapping(t *testing.T) {
	for _, tc := range []struct {
		name  string
		slew  float64
		event func(f *fakeTSC)
		at    int // the read the slew or event comes before
	}{
		{"steady", 0, nil, 1 << 20},
		{"slewed faster", 200e-6, nil, 1 << 20},
		{"slewed slower", -800e-6, nil, 1 << 20},
		{"jump", 0, func(f *fakeTSC) { f.skew += 1 << 36 }, 1 << 20},
		{"step back", 0, func(f *fakeTSC) { f.skew -= 1 << 24 }, 1 << 20},
		{"step back before the first fit", 0, func(f *fakeTSC) { f.skew -= 1 << 24 }, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const reads = 1 << 21
			f := &fakeTSC{rng: 0x9e3779b97f4a7c15, maxStep: 256, rate: 0.4, slew: tc.slew, slewAt: math.MaxUint64}
			c := &tscClock{ticks: f.ticks, mono: f.mono}
			h := float64(f.maxStep+1) * f.rate * (1 + math.Abs(tc.slew))
			bound := int64(1.25*h+2*tscWindow*f.rate*math.Abs(tc.slew)) + 2
			var last, worst, held int64
			for i := 0; i < reads; i++ {
				if i == tc.at {
					f.slewAt = f.tau
					if tc.event != nil {
						last = readTSC(c)
						if _, ok := c.mapped(fakeTSCBase + f.tau + 1 + f.skew); !ok && c.lim.Load() != 0 {
							t.Fatal("the anchor just read does not map the next tick")
						}
						// What the anchor maps its window's end to: the
						// readings after the event hold there until the
						// monotonic clock passes it.
						held = c.n0.Load() + int64(c.lim.Load()*c.mul.Load()>>32)
						tc.event(f)
						if _, ok := c.mapped(fakeTSCBase + f.tau + 1 + f.skew); ok {
							t.Fatalf("a counter that moved by %d ticks is still mapped by the anchor", int64(f.skew))
						}
					}
				}
				// Three quarters of the reads come close together, in
				// runs of some seven windows, so windows end between two
				// of them and one anchor follows another; the rest
				// include idle gaps that carry the run across seconds.
				switch r := f.next(); {
				case i%(1<<20) < 3<<18 || r%64 > 3:
					f.wait(r % 16)
				case r%64 == 0:
					f.wait(r % (4 * tscWindow)) // idle
				default:
					f.wait(r % (tscWindow / 4))
				}
				before := f.truth(f.tau)
				ns := readTSC(c)
				after := f.truth(f.tau)
				if ns < last {
					t.Fatalf("read %d: %d after %d: the clock went backwards", i, ns, last)
				}
				last = ns
				if ns != held {
					worst = max(worst, before-ns, ns-after)
				} else if ns < before {
					t.Fatalf("read %d: held at %d, behind the monotonic clock's %d", i, ns, before)
				}
			}
			if worst > bound {
				t.Errorf("a reading was %d ns off the monotonic clock, bound %d ns", worst, bound)
			}
			if c.lim.Load() == 0 {
				t.Error("no anchor at the end of the run: the clock never left the monotonic fallback")
			}
			t.Logf("%d reads over %v of virtual time: worst %d ns, bound %d ns",
				reads, time.Duration(f.truth(f.tau)), worst, bound)
		})
	}
}

// TestTSCTrusted pins when the runtime reads the TSC: only an invariant
// counter that the kernel itself keeps the monotonic clock on. Anything
// else, a host with no clocksource file included, keeps the monotonic
// clock.
func TestTSCTrusted(t *testing.T) {
	for _, tc := range []struct {
		invariant bool
		source    string
		want      bool
	}{
		{true, "tsc\n", true},
		{false, "tsc\n", false},
		{true, "kvm-clock\n", false},
		{true, "hpet\n", false},
		{true, "", false},
	} {
		if got := tscTrusted(tc.invariant, tc.source); got != tc.want {
			t.Errorf("tscTrusted(%v, %q) = %v, want %v", tc.invariant, tc.source, got, tc.want)
		}
	}
}

// TestTSCConcurrentReadsMonotone reads a fresh tscClock on the real
// counter, and nanotime, from several goroutines at once, through the
// warm-up and across re-anchors: each goroutine's readings never
// decrease. It is the race detector's view of the anchor's sequence
// count and slow's lock.
func TestTSCConcurrentReadsMonotone(t *testing.T) {
	c := &tscClock{ticks: rdtsc, mono: tsc.mono}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastC, lastN int64
			for i := 0; i < 50000; i++ {
				ns, n := readTSC(c), nanotime()
				if ns < lastC || n < lastN {
					t.Errorf("read %d went backwards: %d after %d, nanotime %d after %d", i, ns, lastC, n, lastN)
					return
				}
				lastC, lastN = ns, n
			}
		}()
	}
	wg.Wait()
}
