package live

// Control-plane actuator coverage: the runtime-adjustable quantum, the
// per-class quantum table, the fcfs↔srpt drain-and-swap, plus the
// randomized property and chaos cases the adaptive controller leans on
// — an SRPT pop-order property across mixed bands, lifecycle
// invariants across shard counts, and a policy flipper racing live
// load.

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"concord/internal/obs"
)

// TestSetQuantumTakesEffect: a server built with no quantum never
// preempts; after SetQuantum a running slice expires. The request that
// must be preempted waits for that expiry (awaitSignal) instead of
// spinning for a time a 100µs quantum "must" interrupt, and the ones
// that must not be never expire however slowly they spin, so a slow host
// makes the test slower, not wrong.
func TestSetQuantumTakesEffect(t *testing.T) {
	s := New(&yieldHandler{}, testOptions(1, 0))
	s.Start()
	defer s.Stop()

	unsignalled := yieldReq{spin: 1500 * time.Microsecond}
	if resp := s.Do(unsignalled); resp.Err != nil || resp.Preemptions != 0 {
		t.Fatalf("quantum 0: err %v, preemptions %d, want none", resp.Err, resp.Preemptions)
	}
	s.SetQuantum(100 * time.Microsecond)
	if got := s.Quantum(); got != 100*time.Microsecond {
		t.Fatalf("Quantum() = %v after SetQuantum(100µs)", got)
	}
	if resp := s.Do(yieldReq{yields: 1, await: true}); resp.Err != nil || resp.Preemptions != 1 {
		t.Fatalf("quantum 100µs: err %v, preemptions %d, want the one it waited for", resp.Err, resp.Preemptions)
	}
	// Back to 0 disables preemption again.
	s.SetQuantum(0)
	if resp := s.Do(unsignalled); resp.Err != nil || resp.Preemptions != 0 {
		t.Fatalf("quantum reset to 0: err %v, preemptions %d, want none", resp.Err, resp.Preemptions)
	}
}

// TestSetClassQuantumOverridesBase: a tight class override preempts
// that class's requests while default-class requests are held to the
// base quantum — an hour here, so that a standard request descheduled
// for longer than any plausible base is still not a false failure.
func TestSetClassQuantumOverridesBase(t *testing.T) {
	s := New(&yieldHandler{}, testOptions(1, time.Hour))
	s.Start()
	defer s.Stop()

	s.SetClassQuantum(int(ClassCritical), 100*time.Microsecond)
	if got := s.ClassQuantum(int(ClassCritical)); got != 100*time.Microsecond {
		t.Fatalf("ClassQuantum(ClassCritical) = %v, want 100µs", got)
	}

	crit := s.Do(yieldReq{yields: 1, await: true, class: ClassCritical})
	if crit.Err != nil || crit.Preemptions != 1 {
		t.Fatalf("ClassCritical under 100µs override: err %v, preemptions %d, want the one it waited for", crit.Err, crit.Preemptions)
	}
	std := s.Do(yieldReq{spin: 1500 * time.Microsecond, class: ClassStandard})
	if std.Err != nil || std.Preemptions != 0 {
		t.Fatalf("ClassStandard under the base quantum: err %v, preemptions %d, want none", std.Err, std.Preemptions)
	}

	// Out-of-range classes are ignored, not a panic.
	s.SetClassQuantum(-1, time.Microsecond)
	s.SetClassQuantum(int(NumClasses), time.Microsecond)
	if got := s.ClassQuantum(-1); got != 0 {
		t.Fatalf("ClassQuantum(-1) = %v, want 0", got)
	}
}

// TestObserversDoNotArmClassPreemption pins what arms the ÷4 quantum
// shrink applied to non-critical requests while critical work is queued:
// admission control, a cascade discipline (at New or at a swap) or a
// class quantum — configuration that is about scheduling classes. A
// server that only measures per class (Tracer, Tail with class
// children, Sketches, Capture) must hold every request to the same
// quantum as a plain one.
func TestObserversDoNotArmClassPreemption(t *testing.T) {
	const base = 400 * time.Microsecond
	tail := obs.NewTailTracker(nil, obs.NewSLOTracker(obs.SLOConfig{Target: time.Millisecond}))
	tail.Classes = NewClassTrackers()
	observed := Options{Tracer: obs.NewTracer(2, 64), Tail: tail,
		Sketches: obs.NewClassSketches(NumClasses), Capture: NewCaptureRing(16, 1)}
	classQuantum := func(s *Server) { s.SetClassQuantum(int(ClassSheddable), time.Millisecond) }
	swapToCascade := func(s *Server) {
		s.Start()
		if err := s.SetPolicy(PolicyCascadeSRPT); err != nil {
			t.Fatal(err)
		}
		// The second request is ingested by a dispatcher iteration that
		// began after the first was answered, hence after SetPolicy: the
		// swap has been applied by then. (Submit, not Do: a Do on an idle
		// shard skips the dispatcher.) Stop orders the read below after
		// the dispatcher's writes.
		<-s.Submit(time.Duration(0))
		<-s.Submit(time.Duration(0))
		s.Stop()
	}
	for _, tc := range []struct {
		name  string
		opts  Options
		setup func(*Server)
		armed bool
	}{
		{"plain", Options{}, nil, false},
		{"observed", observed, nil, false},
		{"admission", Options{ClassAdmission: true}, nil, true},
		{"cascade", Options{Policy: PolicyCascade}, nil, true},
		{"swap-to-cascade", Options{}, swapToCascade, true},
		{"class-quantum", Options{}, classQuantum, true},
		{"class-quantum-removed", Options{}, func(s *Server) {
			classQuantum(s)
			s.SetClassQuantum(int(ClassSheddable), 0)
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.opts.Quantum = base
			s := New(&spinHandler{}, tc.opts)
			if tc.setup != nil {
				tc.setup(s)
			}
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

// TestSetPolicyValidates: unknown names are rejected without touching
// the queues; same-name sets are no-ops.
func TestSetPolicyValidates(t *testing.T) {
	s := New(&spinHandler{}, testOptions(1, 0))
	if err := s.SetPolicy("lifo"); err == nil {
		t.Fatal("SetPolicy(lifo) accepted an unknown policy")
	}
	if got := s.Policy(); got != PolicyFCFS {
		t.Fatalf("Policy() = %q after rejected set, want fcfs", got)
	}
	if err := s.SetPolicy(PolicyFCFS); err != nil {
		t.Fatalf("same-policy set errored: %v", err)
	}
}

// TestSetPolicySwapReordersQueuedWork: requests queued under FCFS on a
// plain server (no control plane, no observer) are re-ordered by
// remaining work when SetPolicy swaps to SRPT mid-flight: Submit reads
// hints whatever the discipline, so pre-swap submissions carry theirs
// into the new queue instead of running last as unhinted.
func TestSetPolicySwapReordersQueuedWork(t *testing.T) {
	h := &orderRecHandler{release: make(chan struct{})}
	o := testOptions(1, 0)
	o.QueueBound = 1
	s := New(h, o)
	s.Start()

	blocked := s.Submit("block")
	time.Sleep(time.Millisecond)

	hints := []time.Duration{400, 100, 300, 200} // µs, FCFS order as submitted
	var chans []<-chan Response
	for _, us := range hints {
		chans = append(chans, s.Submit(labeledReq{
			label: us.String(), hint: us * time.Microsecond,
		}))
	}
	time.Sleep(time.Millisecond) // let all four queue under FCFS

	if err := s.SetPolicy(PolicySRPT); err != nil {
		t.Fatal(err)
	}
	if got := s.Policy(); got != PolicySRPT {
		t.Fatalf("Policy() = %q after swap, want srpt", got)
	}
	time.Sleep(time.Millisecond) // let the dispatcher drain-and-swap

	close(h.release)
	<-blocked
	for _, ch := range chans {
		if resp := <-ch; resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	s.Stop()

	want := []string{"100ns", "200ns", "300ns", "400ns"}
	got := h.recorded()
	if len(got) != len(want) {
		t.Fatalf("ran %d requests, want %d (%v)", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post-swap run order %v, want SRPT order %v", got, want)
		}
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
		time.Sleep(time.Millisecond)

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
		time.Sleep(time.Millisecond)
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

// TestPolicyFlipChaos flips fcfs↔srpt continuously while chaos load
// (panics, poll-less burns, spins) runs across a sharded server; every
// submission must still get exactly one response and the books must
// balance after Stop.
func TestPolicyFlipChaos(t *testing.T) {
	o := Options{Workers: 4, Shards: 2, Quantum: 100 * time.Microsecond,
		QueueBound: 2, WorkConserving: true,
		DrainTimeout: 500 * time.Millisecond, PinThreads: false}
	s := New(chaosHandler{}, o)
	s.Start()

	flipStop := make(chan struct{})
	var flips int
	go func() {
		policies := []string{PolicySRPT, PolicyFCFS}
		for i := 0; ; i++ {
			select {
			case <-flipStop:
				return
			case <-time.After(200 * time.Microsecond):
				if err := s.SetPolicy(policies[i%2]); err != nil {
					panic(err)
				}
				flips++
			}
		}
	}()

	const clients, perClient = 8, 40
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)*104729 + 3))
			for i := 0; i < perClient; i++ {
				ch := s.Submit(randomChaosReq(rng))
				if !receiveExactlyOne(t, ch) {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(flipStop)
	s.Stop()

	st := s.Stats()
	if st.Submitted != st.Completed {
		t.Fatalf("policy-flip chaos: submitted %d != completed %d; stats %+v",
			st.Submitted, st.Completed, st)
	}
}
