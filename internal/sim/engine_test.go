package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEngineFiresInOrder(t *testing.T) {
	e := NewEngine()
	var fired []Cycles
	for _, at := range []Cycles{50, 10, 30, 10, 20} {
		at := at
		e.At(at, func(now Cycles) {
			if now != at {
				t.Errorf("event scheduled at %d fired at %d", at, now)
			}
			fired = append(fired, now)
		})
	}
	e.Run()
	want := []Cycles{10, 10, 20, 30, 50}
	if len(fired) != len(want) {
		t.Fatalf("fired %d events, want %d", len(fired), len(want))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Errorf("fired[%d] = %d, want %d", i, fired[i], want[i])
		}
	}
}

func TestEngineSimultaneousEventsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, func(Cycles) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events fired out of scheduling order: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var count int
	var step func(Cycles)
	step = func(now Cycles) {
		count++
		if count < 100 {
			e.After(7, step)
		}
	}
	e.After(0, step)
	e.Run()
	if count != 100 {
		t.Fatalf("count = %d, want 100", count)
	}
	if e.Now() != 99*7 {
		t.Fatalf("clock = %d, want %d", e.Now(), 99*7)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func(Cycles) {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(50, func(Cycles) {})
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := 0
	tm := e.At(10, func(Cycles) { fired++ })
	tm.Stop()
	tm.Stop() // stopping a stopped timer is a no-op
	e.Run()
	if fired != 0 {
		t.Fatal("stopped timer fired")
	}
	tm.Set(20)
	e.Run()
	if fired != 1 || e.Now() != 20 {
		t.Fatalf("re-armed timer: fired %d times, clock %d; want once at 20", fired, e.Now())
	}
	other := e.At(30, func(Cycles) { fired++ })
	tm.Stop() // stopping a fired timer must not disturb the heap
	(*Timer)(nil).Stop()
	e.Run()
	if fired != 2 {
		t.Fatalf("fired = %d after stopping a fired timer; the armed one (%v) was lost", fired, other)
	}
}

func TestEngineCancelMiddleOfHeap(t *testing.T) {
	e := NewEngine()
	var fired []int
	var timers []*Timer
	for i := 0; i < 20; i++ {
		i := i
		timers = append(timers, e.At(Cycles(i*10), func(Cycles) { fired = append(fired, i) }))
	}
	// Stop every third timer.
	for i := 0; i < 20; i += 3 {
		timers[i].Stop()
	}
	e.Run()
	for _, v := range fired {
		if v%3 == 0 {
			t.Fatalf("stopped timer %d fired", v)
		}
	}
	if len(fired) != 13 {
		t.Fatalf("fired %d timers, want 13", len(fired))
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 0; i < 10; i++ {
		e.At(Cycles(i), func(Cycles) {
			count++
			if count == 5 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 5 {
		t.Fatalf("count = %d, want 5 after Stop", count)
	}
}

// TestEngineMatchesReferenceModel runs seeded random programs — arm,
// re-arm and stop, on heap timers and the slot timer, from outside and
// from inside callbacks, with times drawn from so narrow a range that most
// share their instant with others — and checks every firing against a
// reference that holds the armed set in a map and picks the least
// (time, arming sequence). Some arms take a sequence number with Reserve
// and use it in a later SetSeq; the reference keys those by the reserved
// number. Every callback may also re-arm, stop, or stop and re-arm its own
// timer, which is still in the heap while it runs. A stopped timer that
// fires, a fired timer that stays armed, a Stop of an idle timer that
// disturbs the heap, a reserved number not honoured, or a slot-versus-heap
// tie broken the wrong way shows as a wrong identity at some step.
func TestEngineMatchesReferenceModel(t *testing.T) {
	type armed struct {
		at  Cycles
		seq uint64
	}
	const heapTimers = 12 // identity heapTimers is the slot timer
	for seed := uint64(1); seed <= 25; seed++ {
		rng := NewRNG(seed)
		e := NewEngine()
		ref := map[int]armed{}
		seq := uint64(0)      // the reference's count of numbers handed out
		var reserved []uint64 // taken by Reserve, not yet armed
		var fired []int
		timers := make([]*Timer, heapTimers+1)
		arm := func(id int) {
			at := e.Now() + Cycles(rng.Intn(4))
			if len(reserved) > 0 && rng.Intn(2) == 0 {
				k := rng.Intn(len(reserved))
				r := reserved[k]
				reserved = append(reserved[:k], reserved[k+1:]...)
				timers[id].SetSeq(at, r)
				ref[id] = armed{at, r}
				return
			}
			timers[id].Set(at)
			ref[id] = armed{at, seq}
			seq++
		}
		mutate := func(ops int) {
			for ; ops > 0; ops-- {
				id := rng.Intn(len(timers))
				switch rng.Intn(5) {
				case 0:
					timers[id].Stop()
					delete(ref, id)
				case 1:
					if r := e.Reserve(); r != seq {
						t.Fatalf("seed %d: Reserve() = %d, reference has handed out %d", seed, r, seq)
					}
					reserved = append(reserved, seq)
					seq++
				default:
					arm(id)
				}
			}
		}
		for id := range timers {
			id := id
			fn := func(now Cycles) {
				if want, ok := ref[id]; !ok || want.at != now {
					t.Fatalf("seed %d: timer %d fired at %d; reference has %+v (armed %v)", seed, id, now, want, ok)
				}
				fired = append(fired, id)
				delete(ref, id)
				switch rng.Intn(4) { // the firing timer itself
				case 0:
					arm(id)
				case 1:
					timers[id].Stop()
				case 2:
					timers[id].Stop()
					arm(id)
				}
				mutate(rng.Intn(3))
			}
			if id == heapTimers {
				timers[id] = e.NewSlotTimer(fn)
			} else {
				timers[id] = e.NewTimer(fn)
			}
		}
		for step := 0; step < 3000; step++ {
			mutate(rng.Intn(4))
			next, any := -1, false
			for id, a := range ref {
				if b := ref[next]; !any || a.at < b.at || (a.at == b.at && a.seq < b.seq) {
					next, any = id, true
				}
			}
			n := len(fired)
			if e.Step() != any {
				t.Fatalf("seed %d step %d: Step() = %v with %d timers armed in the reference", seed, step, !any, len(ref))
			}
			if any && (len(fired) != n+1 || fired[n] != next) {
				t.Fatalf("seed %d step %d: fired %v, reference says timer %d", seed, step, fired[n:], next)
			}
		}
		if int(e.Executed) != len(fired) {
			t.Fatalf("seed %d: Executed = %d, callbacks ran %d times", seed, e.Executed, len(fired))
		}
	}
}

func TestSlotTimerPastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	slot := e.NewSlotTimer(func(Cycles) {})
	slot.Set(100)
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("arming the slot timer in the past did not panic")
		}
	}()
	slot.Set(50)
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different-seed RNGs agree on %d of 1000 outputs", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	prop := func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			f := r.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	for n := 1; n < 50; n++ {
		for i := 0; i < 100; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(10)
	}
	mean := sum / n
	if math.Abs(mean-10) > 0.2 {
		t.Fatalf("Exp(10) sample mean = %v, want ~10", mean)
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(13)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal(5, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-5) > 0.05 {
		t.Fatalf("Normal mean = %v, want ~5", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Fatalf("Normal stddev = %v, want ~2", math.Sqrt(variance))
	}
}

func TestRNGOneSidedNormal(t *testing.T) {
	r := NewRNG(17)
	for i := 0; i < 100000; i++ {
		if v := r.OneSidedNormal(5, 2); v < 5 {
			t.Fatalf("OneSidedNormal(5,2) = %v below mean", v)
		}
	}
}

func TestRNGParetoRange(t *testing.T) {
	r := NewRNG(19)
	for i := 0; i < 10000; i++ {
		if v := r.Pareto(1.5, 2); v < 1.5 {
			t.Fatalf("Pareto(1.5,2) = %v below scale", v)
		}
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(23)
	child := parent.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("parent and split child agree on %d of 1000 outputs", same)
	}
}

// BenchmarkEngineArmFire is one fire-and-re-arm per op at the depth the
// simulated machine keeps (a few dozen armed timers).
func BenchmarkEngineArmFire(b *testing.B) {
	e := NewEngine()
	n := 0
	for i := 0; i < 24; i++ {
		var tm *Timer
		tm = e.NewTimer(func(now Cycles) {
			if n++; n < b.N {
				tm.Set(now + Cycles(1+n%7))
			}
		})
		tm.Set(Cycles(i))
	}
	b.ResetTimer()
	e.Run()
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}
