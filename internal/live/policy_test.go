package live

// Scheduling-discipline coverage: what arms the class-aware quantum
// shrink, an SRPT pop-order property across mixed bands, SRPT run order
// on one worker, and lifecycle invariants across shard counts.

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"concord/internal/obs"
)

// TestObserversDoNotArmClassPreemption pins what arms the ÷4 quantum
// shrink applied to non-critical requests while critical work is queued:
// admission control or a cascade discipline — configuration that is
// about scheduling classes. A server that only measures per class
// (Tracer, Tail with class children, Sketches, Capture) must hold every
// request to the same quantum as a plain one.
func TestObserversDoNotArmClassPreemption(t *testing.T) {
	const base = 400 * time.Microsecond
	tail := obs.NewTailTracker(nil, obs.NewSLOTracker(obs.SLOConfig{Target: time.Millisecond}))
	tail.Classes = NewClassTrackers()
	observed := Options{Tracer: obs.NewTracer(2, 64), Tail: tail,
		Sketches: obs.NewClassSketches(NumClasses), Capture: NewCaptureRing(16, 1)}
	for _, tc := range []struct {
		name  string
		opts  Options
		armed bool
	}{
		{"plain", Options{}, false},
		{"observed", observed, false},
		{"admission", Options{ClassAdmission: true}, true},
		{"cascade", Options{Policy: PolicyCascade}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.opts.Quantum = base
			s := New(&spinHandler{}, tc.opts)
			sh := s.shards[0]
			if s.critShrink(sh) {
				t.Fatal("shrink on with no critical request queued")
			}
			sh.q.Push(&task{class: uint8(ClassCritical)})
			shrink := s.critShrink(sh)
			if shrink != tc.armed {
				t.Fatalf("critShrink with a critical request queued = %v, want %v", shrink, tc.armed)
			}
			want := base
			if tc.armed {
				want = base / critQuantumShrink
			}
			if got := s.quantumFor(uint8(ClassStandard), shrink); got != want {
				t.Fatalf("standard request held to %v, want %v", got, want)
			}
			if got := s.quantumFor(uint8(ClassCritical), shrink); got != base {
				t.Fatalf("critical request held to %v, want %v", got, base)
			}
		})
	}
}

// TestSRPTQueuePopOrderProperty: for random mixes of in-budget,
// over-budget, and un-hinted tasks, an SRPT central queue pops keys in
// nondecreasing order and un-hinted tasks FIFO among themselves.
func TestSRPTQueuePopOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		q, err := newCentralQueue(PolicySRPT)
		if err != nil {
			t.Fatal(err)
		}
		n := 50 + rng.Intn(150)
		for i := 0; i < n; i++ {
			tk := &task{id: uint64(i + 1)}
			switch rng.Intn(3) {
			case 0: // in-budget
				tk.hintNS = int64(1+rng.Intn(1000)) * 1000
				tk.runNS = int64(float64(tk.hintNS) * rng.Float64())
			case 1: // over-budget
				tk.hintNS = int64(1+rng.Intn(100)) * 1000
				tk.runNS = tk.hintNS + int64(1+rng.Intn(1000))*1000
			case 2: // un-hinted
			}
			q.Push(tk)
		}
		lastKey := int64(-1)
		lastUnhintedID := uint64(0)
		for i := 0; i < n; i++ {
			tk, ok := q.Pop()
			if !ok {
				t.Fatalf("trial %d: queue dry after %d of %d pops", trial, i, n)
			}
			key := int64(tk.RemainingCycles())
			if key < lastKey {
				t.Fatalf("trial %d: pop %d key %d after key %d — not nondecreasing", trial, i, key, lastKey)
			}
			lastKey = key
			if key == unhintedKey {
				if tk.id <= lastUnhintedID {
					t.Fatalf("trial %d: un-hinted id %d popped after id %d — not FIFO", trial, i, lastUnhintedID)
				}
				lastUnhintedID = tk.id
			}
		}
	}
}

// TestSRPTSingleWorkerMixProperty: randomized hinted/un-hinted mixes
// released against one worker must run hinted-ascending first, then
// un-hinted in submission order.
func TestSRPTSingleWorkerMixProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		h := &orderRecHandler{release: make(chan struct{})}
		o := testOptions(1, 0)
		o.Policy = PolicySRPT
		o.QueueBound = 1
		s := New(h, o)
		s.Start()

		blocked := s.Submit("block")
		waitUntil(t, "the blocker to hold the worker", func() bool { return s.Depths().Workers[0] == 1 })

		var hinted []time.Duration
		var unhinted []string
		var chans []<-chan Response
		n := 10 + rng.Intn(20)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				label := time.Duration(i).String() + "-u"
				unhinted = append(unhinted, label)
				chans = append(chans, s.Submit(unlabeledReq{label: label}))
			} else {
				// Distinct hints so the expected order is unambiguous.
				hint := time.Duration(1000+i) * time.Microsecond
				hinted = append(hinted, hint)
				chans = append(chans, s.Submit(labeledReq{label: hint.String(), hint: hint}))
			}
		}
		waitUntil(t, "every request to reach the central queue", func() bool { return s.Depths().Central == len(chans) })
		close(h.release)
		<-blocked
		for _, ch := range chans {
			if resp := <-ch; resp.Err != nil {
				t.Fatal(resp.Err)
			}
		}
		s.Stop()

		sort.Slice(hinted, func(i, j int) bool { return hinted[i] < hinted[j] })
		var want []string
		for _, d := range hinted {
			want = append(want, d.String())
		}
		want = append(want, unhinted...)
		got := h.recorded()
		if len(got) != len(want) {
			t.Fatalf("trial %d: ran %d, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: run order %v, want %v", trial, got, want)
			}
		}
	}
}

// TestSRPTShardedMixInvariants: the same random mixes across shard
// counts keep the lifecycle invariants (exactly one response per
// submission, Submitted == Completed) — ordering is per-shard and
// perturbed by stealing, so only the invariants are global.
func TestSRPTShardedMixInvariants(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(shardName(shards), func(t *testing.T) {
			o := shardedOptions(4, shards, 100*time.Microsecond)
			o.Policy = PolicySRPT
			s := New(&spinHandler{}, o)
			s.Start()
			rng := rand.New(rand.NewSource(int64(shards) * 1313))
			const n = 200
			var chans []<-chan Response
			for i := 0; i < n; i++ {
				if rng.Intn(3) == 0 {
					// Un-hinted short work rides the sentinel band.
					chans = append(chans, s.Submit(20*time.Microsecond))
				} else {
					d := time.Duration(10+rng.Intn(400)) * time.Microsecond
					chans = append(chans, s.Submit(hintedSpin{hint: d}))
				}
			}
			for i, ch := range chans {
				if !receiveExactlyOne(t, ch) {
					t.Fatalf("request %d violated exactly-one-response", i)
				}
			}
			s.Stop()
			st := s.Stats()
			if st.Submitted != st.Completed {
				t.Fatalf("submitted %d != completed %d; stats %+v", st.Submitted, st.Completed, st)
			}
		})
	}
}
