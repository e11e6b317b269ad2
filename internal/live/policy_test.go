package live

// Scheduling-discipline coverage: what arms the class-aware quantum
// shrink, an SRPT pop-order property across mixed bands, SRPT and FCFS
// run order on one worker, and lifecycle invariants under random SRPT
// mixes.

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"concord/internal/obs"
	"concord/internal/policy"
)

// TestObserversDoNotArmClassPreemption pins what arms the ÷4 quantum
// shrink applied to non-critical requests while critical work is queued:
// admission control or a cascade discipline — configuration that is
// about scheduling classes. A server that only measures (Tracer) must
// hold every request to the same quantum as a plain one.
func TestObserversDoNotArmClassPreemption(t *testing.T) {
	const base = 400 * time.Microsecond
	for _, tc := range []struct {
		name  string
		opts  Options
		armed bool
	}{
		{"plain", Options{}, false},
		{"observed", Options{Tracer: obs.NewTracer(2, 64)}, false},
		{"admission", Options{ClassAdmission: true}, true},
		{"cascade", Options{Policy: PolicyCascade}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.opts.Quantum = base
			s := New(&spinHandler{}, tc.opts)
			if s.critShrink() {
				t.Fatal("shrink on with no critical request queued")
			}
			s.disp.q.Push(&task{taskState: taskState{class: uint8(ClassCritical)}})
			shrink := s.critShrink()
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
			tk := &task{taskState: taskState{id: uint64(i + 1)}}
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
			if key == int64(policy.UnhintedKey) {
				if tk.id <= lastUnhintedID {
					t.Fatalf("trial %d: un-hinted id %d popped after id %d — not FIFO", trial, i, lastUnhintedID)
				}
				lastUnhintedID = tk.id
			}
		}
	}
}

// TestSRPTSingleWorkerMixProperty: randomized mixes released against
// one worker run in the discipline's order. srpt: hinted-ascending
// first, then un-hinted in submission order. cascade and cascade-srpt,
// over a random class mix of hinted requests: critical, then standard,
// then sheddable; within a tier, submission order (cascade) or
// hint-ascending with ties in submission order (cascade-srpt).
func TestSRPTSingleWorkerMixProperty(t *testing.T) {
	quietDispatcher(t)
	tier := [NumClasses]int{ClassCritical: 0, ClassStandard: 1, ClassSheddable: 2}
	for _, policy := range []string{PolicySRPT, PolicyCascade, PolicyCascadeSRPT} {
		t.Run(policy, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < 20; trial++ {
				h := &orderRecHandler{release: make(chan struct{})}
				o := testOptions(1, 0)
				o.Policy = policy
				o.QueueBound = 1
				s := New(h, o)
				s.Start()

				blocked := s.Submit("block")
				waitUntil(t, "the blocker to hold the worker", func() bool { return s.Depths().Workers[0] == 1 })

				type sub struct {
					label string
					hint  time.Duration // 0 = un-hinted
					tier  int
				}
				var subs []sub
				var chans []<-chan Response
				n := 10 + rng.Intn(20)
				for i := 0; i < n; i++ {
					label := time.Duration(i).String()
					switch {
					case policy != PolicySRPT:
						// Four hint values over up to 29 requests: ties are common.
						hint := time.Duration(1+rng.Intn(4)) * 100 * time.Microsecond
						class := SLOClass(rng.Intn(NumClasses))
						subs = append(subs, sub{label, hint, tier[class]})
						chans = append(chans, s.Submit(classedReq{labeledReq{label, hint}, class}))
					case rng.Intn(3) == 0:
						subs = append(subs, sub{label + "-u", 0, tier[ClassStandard]})
						chans = append(chans, s.Submit(unlabeledReq{label: label + "-u"}))
					default:
						// Distinct hints so the expected order is unambiguous.
						hint := time.Duration(1000+i) * time.Microsecond
						subs = append(subs, sub{hint.String(), hint, tier[ClassStandard]})
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

				// A stable sort keeps submission order among equals.
				byHint := policy != PolicyCascade
				sort.SliceStable(subs, func(i, j int) bool {
					a, b := subs[i], subs[j]
					if a.tier != b.tier {
						return a.tier < b.tier
					}
					if !byHint || a.hint == b.hint {
						return false
					}
					return b.hint == 0 || (a.hint != 0 && a.hint < b.hint) // un-hinted last
				})
				var want []string
				for _, sb := range subs {
					want = append(want, sb.label)
				}
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
		})
	}
}

// TestSRPTShardedMixInvariants: random mixes on four workers keep the
// lifecycle invariants (exactly one response per submission, Submitted
// == Completed). The rows keep the names of the shard counts they once
// ran at; each seeds a mix of its own.
func TestSRPTShardedMixInvariants(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards-%d", n), func(t *testing.T) {
			o := testOptions(4, 100*time.Microsecond)
			o.Policy = PolicySRPT
			s := New(&spinHandler{}, o)
			s.Start()
			rng := rand.New(rand.NewSource(int64(n) * 1313))
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
				if !receiveExactlyOne(t, ch, 0) {
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

// blockingHandler parks handler goroutines on a channel so tests can
// hold workers busy deterministically.
type blockingHandler struct {
	release chan struct{}
	order   struct {
		mu    sync.Mutex
		hints []time.Duration
	}
}

func (h *blockingHandler) Setup()          {}
func (h *blockingHandler) SetupWorker(int) {}
func (h *blockingHandler) Handle(ctx *Ctx, payload any) (any, error) {
	switch p := payload.(type) {
	case string: // "block"
		<-h.release
		return p, nil
	case hintedSpin:
		h.order.mu.Lock()
		h.order.hints = append(h.order.hints, p.hint)
		h.order.mu.Unlock()
		return p.hint, nil
	default:
		return payload, nil
	}
}

// hintedSpin is a payload carrying an SRPT service hint.
type hintedSpin struct {
	hint time.Duration
}

func (p hintedSpin) ServiceHint() time.Duration { return p.hint }

// TestSRPTLiveOrdering: with one worker held busy, queued hinted
// requests must run shortest-remaining-first once the worker frees up.
func TestSRPTLiveOrdering(t *testing.T) {
	quietDispatcher(t)
	h := &blockingHandler{release: make(chan struct{})}
	o := testOptions(1, 0)
	o.Policy = PolicySRPT
	o.QueueBound = 1
	s := New(h, o)
	s.Start()

	blocked := s.Submit("block")
	waitUntil(t, "the blocker to hold the worker", func() bool { return s.Depths().Workers[0] == 1 })

	hints := []time.Duration{400, 100, 300, 200} // microseconds, submitted out of order
	var chans []<-chan Response
	for _, us := range hints {
		chans = append(chans, s.Submit(hintedSpin{hint: us * time.Microsecond}))
	}
	waitUntil(t, "all four to reach the central queue", func() bool { return s.Depths().Central == len(chans) })
	close(h.release)
	<-blocked
	for _, ch := range chans {
		if resp := <-ch; resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	s.Stop()

	h.order.mu.Lock()
	got := append([]time.Duration(nil), h.order.hints...)
	h.order.mu.Unlock()
	want := []time.Duration{100, 200, 300, 400}
	if len(got) != len(want) {
		t.Fatalf("ran %d hinted requests, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i]*time.Microsecond {
			t.Fatalf("SRPT run order %v, want %v µs", got, want)
		}
	}
}

// TestFCFSIgnoresHints: the same out-of-order submission under FCFS must
// run in arrival order — hints are policy-scoped, not a global reorder.
func TestFCFSIgnoresHints(t *testing.T) {
	quietDispatcher(t)
	h := &blockingHandler{release: make(chan struct{})}
	o := testOptions(1, 0)
	o.QueueBound = 1
	s := New(h, o)
	s.Start()

	blocked := s.Submit("block")
	waitUntil(t, "the blocker to hold the worker", func() bool { return s.Depths().Workers[0] == 1 })
	hints := []time.Duration{400, 100, 300, 200}
	var chans []<-chan Response
	for _, us := range hints {
		chans = append(chans, s.Submit(hintedSpin{hint: us * time.Microsecond}))
	}
	waitUntil(t, "all four to reach the central queue", func() bool { return s.Depths().Central == len(chans) })
	close(h.release)
	<-blocked
	for _, ch := range chans {
		if resp := <-ch; resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	s.Stop()

	h.order.mu.Lock()
	got := append([]time.Duration(nil), h.order.hints...)
	h.order.mu.Unlock()
	for i, us := range hints {
		if got[i] != us*time.Microsecond {
			t.Fatalf("FCFS run order %v, want submission order %v µs", got, hints)
		}
	}
}
