package live

// Fault-injection harness for the live runtime: randomly panicking
// handlers, handlers that never Poll, slow clients that delay reading
// responses, clients that batch-submit without reading, callers that
// place their own requests, and Stop racing mid-request — all under one
// invariant, checked per call and in aggregate: every call gets exactly
// one response, and after Stop every attempt is accounted for
// (checkConservation: no accepted request is ever dropped). Run with
// -race; see `make race`.

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// chaosReq drives one misbehaving (or well-behaved) request. The zero
// class is standard, so the pre-existing suites run classless.
type chaosReq struct {
	kind  string // "quick", "spin", "nopoll", "panic"
	d     time.Duration
	class SLOClass
	seq   int // tells a caller's own response from another's
}

func (r chaosReq) SLOClass() SLOClass { return r.class }

type chaosHandler struct{}

func (chaosHandler) Setup()          {}
func (chaosHandler) SetupWorker(int) {}
func (chaosHandler) Handle(ctx *Ctx, payload any) (any, error) {
	req := payload.(chaosReq)
	switch req.kind {
	case "panic":
		panic("chaos: handler panic")
	case "nopoll":
		// Burn CPU without ever polling: quanta and drain aborts must
		// tolerate a handler that never checks them.
		sink := 0
		until := time.Now().Add(req.d)
		for time.Now().Before(until) {
			sink++
		}
		return sink, nil
	case "spin":
		ctx.Spin(req.d)
		return "spun", nil
	default:
		return "ok", nil
	}
}

func randomChaosReq(rng *rand.Rand) chaosReq {
	switch v := rng.Float64(); {
	case v < 0.05:
		return chaosReq{kind: "panic"}
	case v < 0.20:
		return chaosReq{kind: "nopoll", d: time.Duration(10+rng.Intn(40)) * time.Microsecond}
	case v < 0.50:
		return chaosReq{kind: "spin", d: time.Duration(50+rng.Intn(250)) * time.Microsecond}
	default:
		return chaosReq{kind: "quick"}
	}
}

// checkConservation asserts, after Stop, that Stats accounts for every
// one of attempts submissions, of any kind: each was accepted or
// rejected (Submitted + Rejected), and each accepted one was answered
// (Submitted == Completed, which counts Expired and Aborted too).
func checkConservation(t *testing.T, s *Server, attempts uint64) {
	t.Helper()
	if st := s.Stats(); st.Submitted+st.Rejected != attempts || st.Submitted != st.Completed {
		t.Fatalf("%d attempts: submitted %d + rejected %d, completed %d (an accepted request dropped, or one counted twice); stats %+v",
			attempts, st.Submitted, st.Rejected, st.Completed, st)
	}
}

// receiveExactlyOne asserts the submission channel yields one response,
// echoing the request numbered seq (0: any), and no second one.
func receiveExactlyOne(t *testing.T, ch <-chan Response, seq int) bool {
	t.Helper()
	select {
	case resp := <-ch:
		if r, ok := resp.Req.(chaosReq); seq != 0 && (!ok || r.seq != seq) {
			t.Errorf("chaos: request %d answered with %v, not its own request", seq, resp.Req)
			return false
		}
		select {
		case <-ch:
			t.Error("chaos: second response on one submission")
			return false
		default:
		}
		return true
	case <-time.After(15 * time.Second):
		t.Error("chaos: submission never answered")
		return false
	}
}

// TestChaosLifecycle: chaos clients against eight configurations. In
// "placing", half the clients place their own requests (Do and TryDo)
// beside closed-loop Submit ones, on enough workers that they often can,
// and the drain deadline is short enough that Stop retires placed
// requests that have yielded and detached. "deadline" sets a request
// timeout short enough that queued and parked requests expire,
// "submitfunc" submits through SubmitFunc's callback instead of Submit's
// channel, and "cascade" runs the class-tiered queue on requests of
// every class. Every response must echo its own request.
func TestChaosLifecycle(t *testing.T) {
	configs := []struct {
		name    string
		opts    Options
		placing bool
		buffer  int  // ingress capacity; 0 keeps the default
		viaFunc bool // submit through SubmitFunc
		classed bool // draw each request's class at random
	}{
		{"k1-steal", Options{Workers: 1, Quantum: 100 * time.Microsecond, QueueBound: 1,
			DrainTimeout: 500 * time.Millisecond, PinThreads: false}, false, 0, false, false},
		{"w4", Options{Workers: 4, Quantum: 100 * time.Microsecond, QueueBound: 2,
			DrainTimeout: 500 * time.Millisecond, PinThreads: false}, false, 0, false, false},
		{"no-preempt", Options{Workers: 2, Quantum: 0,
			DrainTimeout: 500 * time.Millisecond, PinThreads: false}, false, 0, false, false},
		{"tiny-buffer", Options{Workers: 2, Quantum: 50 * time.Microsecond,
			DrainTimeout: 500 * time.Millisecond, PinThreads: false}, false, 4, false, false},
		{"placing", Options{Workers: 4, Quantum: 100 * time.Microsecond,
			DrainTimeout: 100 * time.Microsecond, PinThreads: false}, true, 0, false, false},
		{"deadline", Options{Workers: 2, Quantum: 100 * time.Microsecond, RequestTimeout: 250 * time.Microsecond,
			DrainTimeout: 500 * time.Millisecond, PinThreads: false}, false, 0, false, false},
		{"submitfunc", Options{Workers: 4, Quantum: 100 * time.Microsecond, QueueBound: 2,
			DrainTimeout: 500 * time.Millisecond, PinThreads: false}, false, 0, true, false},
		{"cascade", Options{Workers: 2, Quantum: 100 * time.Microsecond, Policy: PolicyCascade,
			DrainTimeout: 500 * time.Millisecond, PinThreads: false}, false, 0, false, true},
	}

	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			if cfg.buffer > 0 {
				withSubmitBuffer(t, cfg.buffer)
			}
			s := New(chaosHandler{}, cfg.opts)
			s.Start()

			const clients, perClient = 8, 40
			var wg sync.WaitGroup
			var attempts atomic.Uint64
			callbacks := make([][]chan Response, clients) // per TryDo call
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(c)*7919 + 1))
					if cfg.placing && c%4 >= 2 {
						callbacks[c] = chaosPlacer(t, s, rng, c, perClient, c%4 == 3, &attempts)
						return
					}
					// submit sends request i, numbered c*perClient+i+1;
					// a SubmitFunc callback feeds a channel kept to
					// check after Stop that no second response came.
					submit := func(i int) <-chan Response {
						req := randomChaosReq(rng)
						req.seq = c*perClient + i + 1
						if cfg.classed {
							req.class = SLOClass(rng.Intn(NumClasses))
						}
						attempts.Add(1)
						if !cfg.viaFunc {
							return s.Submit(req)
						}
						got := make(chan Response, 2)
						callbacks[c] = append(callbacks[c], got)
						s.SubmitFunc(req, func(r Response) { got <- r })
						return got
					}
					if c%3 == 0 && !cfg.placing {
						// Abusive client: batch-submit everything, then
						// read late — responses must not be lost while
						// nobody is listening (result channels buffer).
						var chans []<-chan Response
						for i := 0; i < perClient; i++ {
							chans = append(chans, submit(i))
						}
						// Kept on purpose: jitter in how late the
						// client reads, not a wait for traffic.
						time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
						for i, ch := range chans {
							if !receiveExactlyOne(t, ch, c*perClient+i+1) {
								return
							}
						}
						return
					}
					// Closed-loop client with random think/read delays.
					for i := 0; i < perClient; i++ {
						ch := submit(i)
						if rng.Intn(4) == 0 {
							// Kept on purpose: read-delay jitter.
							time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
						}
						if !receiveExactlyOne(t, ch, c*perClient+i+1) {
							return
						}
					}
				}(c)
			}

			// Stop mid-flight, once half the attempts have been accepted
			// or rejected: some submissions are in queues, some are
			// running, some haven't been made yet (those get rejected).
			waitUntil(t, "half the submissions", func() bool {
				st := s.Stats()
				return st.Submitted+st.Rejected >= clients*perClient/2
			})
			stopDone := make(chan struct{})
			go func() { s.Stop(); close(stopDone) }()
			wg.Wait()
			select {
			case <-stopDone:
			case <-time.After(15 * time.Second):
				t.Fatal("chaos: Stop hung")
			}
			for c, calls := range callbacks {
				for i, got := range calls {
					if len(got) != 0 {
						t.Errorf("chaos: client %d callback %d: a second response", c, i)
					}
				}
			}
			checkConservation(t, s, attempts.Load())
			t.Logf("stats %+v", s.Stats())
		})
	}
}

// chaosPlacer is a closed-loop client that places its own requests: Do,
// or TryDo when try is set. Each call must get exactly one response, and
// its own: Do's return value; TryDo's return value when it placed — and
// then no callback, ever — or else one callback, waited for before the
// next call. It returns each TryDo's callback channel, for the caller to
// check after Stop that no second response arrived late.
func chaosPlacer(t *testing.T, s *Server, rng *rand.Rand, c, n int, try bool, attempts *atomic.Uint64) (calls []chan Response) {
	for i := 0; i < n; i++ {
		req := randomChaosReq(rng)
		req.seq = c*n + i + 1
		attempts.Add(1)
		var resp Response
		if !try {
			resp = s.Do(req)
		} else {
			got := make(chan Response, 2)
			calls = append(calls, got)
			var placed bool
			if resp, placed = s.TryDo(req, func(r Response) { got <- r }); !placed {
				select {
				case resp = <-got:
				case <-time.After(15 * time.Second):
					t.Error("chaos: TryDo never called back")
					return calls
				}
			}
		}
		if r, ok := resp.Req.(chaosReq); !ok || r.seq != req.seq {
			t.Errorf("chaos: client %d call %d answered with %v, not its own request", c, i, resp.Req)
			return calls
		}
	}
	return calls
}

// TestChaosSheddingOverloadStop: overload with per-class admission
// actively shedding, then Stop mid-load — the exactly-one-response
// invariant must survive the three-way race between class admission
// (ErrShed), backpressure (ErrQueueFull), and the stop gate
// (ErrServerStopped). ErrShed must only ever land on sheddable
// submissions. That admission sheds at all is asserted first and
// without a race: before Start nothing drains the ingress buffer, so
// sheddable submissions fill it to the sheddable watermark and the next
// one must be shed while a standard one still fits; standard
// submissions then fill it to standard's watermark, the next is
// refused, and a critical one still fits — the reserve is critical's
// alone. (Shedding used to be inferred from the chaos phase — eight
// clients outrunning the dispatcher into an 8-slot buffer — and failed
// about one run in four, more often the faster the runtime.)
func TestChaosSheddingOverloadStop(t *testing.T) {
	// The rows keep the names of the shard counts they once ran at, and
	// the ingress capacity they had: n buffers of 8 then, one of 8n now.
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards%d", n), func(t *testing.T) {
			// A tiny buffer keeps the sheddable watermark in easy reach,
			// so admission sheds from the first burst.
			withSubmitBuffer(t, 8*n)
			s := New(chaosHandler{}, Options{
				Workers:        4,
				Quantum:        100 * time.Microsecond,
				Policy:         PolicyCascade,
				ClassAdmission: true,
				DrainTimeout:   500 * time.Millisecond,
				PinThreads:     false,
			})
			var early []<-chan Response
			for i := 0; i < s.classLimit[ClassSheddable]; i++ {
				early = append(early, s.Submit(chaosReq{kind: "quick", class: ClassSheddable}))
			}
			if resp := <-s.Submit(chaosReq{kind: "quick", class: ClassSheddable}); resp.Err != ErrShed {
				t.Fatalf("sheddable submission past the watermark: err = %v, want ErrShed", resp.Err)
			}
			for len(early) < s.classLimit[ClassStandard] {
				early = append(early, s.Submit(chaosReq{kind: "quick", class: ClassStandard}))
			}
			if resp := <-s.Submit(chaosReq{kind: "quick", class: ClassStandard}); resp.Err != ErrQueueFull {
				t.Fatalf("standard submission into the critical reserve: err = %v, want ErrQueueFull", resp.Err)
			}
			early = append(early, s.Submit(chaosReq{kind: "quick", class: ClassCritical}))
			s.Start()
			for i, ch := range early {
				select {
				case resp := <-ch:
					if resp.Err != nil {
						t.Fatalf("submission %d admitted below its watermark: %v", i, resp.Err)
					}
				case <-time.After(15 * time.Second):
					t.Fatalf("submission %d admitted before Start never answered", i)
				}
			}

			const clients, perClient = 8, 60
			admitted := s.Stats()
			before := admitted.Submitted + admitted.Rejected
			var wg sync.WaitGroup
			var shedWrongClass sync.Map
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(c)*104729 + 3))
					check := func(req chaosReq, ch <-chan Response) bool {
						select {
						case resp := <-ch:
							if resp.Err == ErrShed && req.class != ClassSheddable {
								shedWrongClass.Store(req.class, true)
							}
							select {
							case <-ch:
								t.Error("chaos: second response on one submission")
								return false
							default:
							}
							return true
						case <-time.After(15 * time.Second):
							t.Error("chaos: submission never answered")
							return false
						}
					}
					classed := func() chaosReq {
						req := randomChaosReq(rng)
						switch v := rng.Float64(); {
						case v < 0.2:
							req.class = ClassCritical
						case v < 0.5:
							req.class = ClassStandard
						default:
							req.class = ClassSheddable
						}
						return req
					}
					if c%2 == 0 {
						// Flooder: batch-submit the lot to overrun the
						// tiny buffers, read late.
						reqs := make([]chaosReq, perClient)
						chans := make([]<-chan Response, perClient)
						for i := range reqs {
							reqs[i] = classed()
							chans[i] = s.Submit(reqs[i])
						}
						// Kept on purpose: read-delay jitter.
						time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
						for i := range reqs {
							if !check(reqs[i], chans[i]) {
								return
							}
						}
						return
					}
					for i := 0; i < perClient; i++ {
						req := classed()
						if !check(req, s.Submit(req)) {
							return
						}
					}
				}(c)
			}

			// Stop mid-load, once half the chaos phase's submissions
			// have been admitted, shed or refused.
			waitUntil(t, "half the submissions", func() bool {
				st := s.Stats()
				return st.Submitted+st.Rejected >= before+clients*perClient/2
			})
			stopDone := make(chan struct{})
			go func() { s.Stop(); close(stopDone) }()
			wg.Wait()
			select {
			case <-stopDone:
			case <-time.After(15 * time.Second):
				t.Fatal("chaos: Stop hung during active shedding")
			}

			shedWrongClass.Range(func(k, _ any) bool {
				t.Errorf("chaos: ErrShed delivered to %v submission", k)
				return true
			})
			st := s.Stats()
			if st.Submitted != st.Completed {
				t.Fatalf("chaos: submitted %d != completed %d (accepted request dropped); stats %+v",
					st.Submitted, st.Completed, st)
			}
			if st.Shed == 0 {
				t.Error("chaos: Stats.Shed = 0 after a submission was answered ErrShed")
			}
		})
	}
}

// TestChaosRepeatedStopIdempotent: concurrent and repeated Stops are
// safe and all return.
func TestChaosRepeatedStopIdempotent(t *testing.T) {
	s := New(chaosHandler{}, Options{Workers: 2, Quantum: 100 * time.Microsecond, PinThreads: false})
	s.Start()
	for i := 0; i < 20; i++ {
		s.Submit(chaosReq{kind: "spin", d: 100 * time.Microsecond})
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Stop()
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("concurrent Stops hung")
	}
}

// TestShardedChaosLifecycle reruns the chaos invariant (exactly one
// response per submission; Submitted == Completed after Stop) on four
// workers at JBSQ(2), JBSQ(1) and under SRPT, under the names of the
// shard counts the rows once ran at. Stop lands while traffic is in
// flight: once half the submissions have been accepted.
func TestShardedChaosLifecycle(t *testing.T) {
	configs := []struct {
		name string
		opts Options
	}{
		{"shards-2", Options{Workers: 4, Quantum: 100 * time.Microsecond, QueueBound: 2,
			DrainTimeout: 500 * time.Millisecond, PinThreads: false}},
		{"shards-4", Options{Workers: 4, Quantum: 100 * time.Microsecond, QueueBound: 1,
			DrainTimeout: 500 * time.Millisecond, PinThreads: false}},
		{"shards-2-srpt", Options{Workers: 4, Policy: PolicySRPT,
			Quantum: 100 * time.Microsecond, QueueBound: 2,
			DrainTimeout: 500 * time.Millisecond, PinThreads: false}},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			s := New(chaosHandler{}, cfg.opts)
			s.Start()
			const clients, perClient = 8, 40
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(c)*7919 + 1))
					for i := 0; i < perClient; i++ {
						req := randomChaosReq(rng)
						req.seq = c*perClient + i + 1
						if !receiveExactlyOne(t, s.Submit(req), req.seq) {
							return
						}
					}
				}(c)
			}
			waitUntil(t, "half the submissions", func() bool { return s.Stats().Submitted >= clients*perClient/2 })
			stopDone := make(chan struct{})
			go func() { s.Stop(); close(stopDone) }()
			wg.Wait()
			select {
			case <-stopDone:
			case <-time.After(15 * time.Second):
				t.Fatal("chaos: Stop hung")
			}
			st := s.Stats()
			if st.Submitted != st.Completed {
				t.Fatalf("chaos: submitted %d != completed %d; stats %+v",
					st.Submitted, st.Completed, st)
			}
		})
	}
}
