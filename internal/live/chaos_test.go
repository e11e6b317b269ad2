package live

// Fault-injection harness for the live runtime: randomly panicking
// handlers, handlers that never Poll, slow clients that delay reading
// responses, clients that batch-submit without reading, and Stop racing
// mid-request — all under one invariant, checked per submission and in
// aggregate: every Submit channel delivers exactly one response, and
// after Stop, Submitted == Completed (no accepted request is ever
// dropped). Run with -race; see `make race`.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// chaosReq drives one misbehaving (or well-behaved) request. The zero
// class is standard, so the pre-existing suites run classless.
type chaosReq struct {
	kind  string // "quick", "spin", "nopoll", "panic"
	d     time.Duration
	class SLOClass
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

// receiveExactlyOne asserts the submission channel yields one response
// and no second one.
func receiveExactlyOne(t *testing.T, ch <-chan Response) bool {
	t.Helper()
	select {
	case <-ch:
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

func TestChaosLifecycle(t *testing.T) {
	configs := []struct {
		name string
		opts Options
	}{
		{"k1-steal", Options{Workers: 1, Quantum: 100 * time.Microsecond, QueueBound: 1,
			WorkConserving: true, DrainTimeout: 500 * time.Millisecond, PinThreads: false}},
		{"w4", Options{Workers: 4, Quantum: 100 * time.Microsecond, QueueBound: 2,
			DrainTimeout: 500 * time.Millisecond, PinThreads: false}},
		{"no-preempt", Options{Workers: 2, Quantum: 0,
			DrainTimeout: 500 * time.Millisecond, PinThreads: false}},
		{"tiny-buffer", Options{Workers: 2, Quantum: 50 * time.Microsecond, SubmitBuffer: 4,
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
					if c%3 == 0 {
						// Abusive client: batch-submit everything, then
						// read late — responses must not be lost while
						// nobody is listening (result channels buffer).
						var chans []<-chan Response
						for i := 0; i < perClient; i++ {
							chans = append(chans, s.Submit(randomChaosReq(rng)))
						}
						time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
						for _, ch := range chans {
							if !receiveExactlyOne(t, ch) {
								return
							}
						}
						return
					}
					// Closed-loop client with random think/read delays.
					for i := 0; i < perClient; i++ {
						ch := s.Submit(randomChaosReq(rng))
						if rng.Intn(4) == 0 {
							time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
						}
						if !receiveExactlyOne(t, ch) {
							return
						}
					}
				}(c)
			}

			// Stop mid-flight: some submissions are in queues, some are
			// running, some haven't been made yet (those get rejected).
			time.Sleep(2 * time.Millisecond)
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
				t.Fatalf("chaos: submitted %d != completed %d (accepted request dropped); stats %+v",
					st.Submitted, st.Completed, st)
			}
		})
	}
}

// TestChaosSheddingOverloadStop: overload with per-class admission
// actively shedding, then Stop mid-load — the exactly-one-response
// invariant must survive the three-way race between class admission
// (ErrShed), backpressure (ErrQueueFull), and the stop gate
// (ErrServerStopped), across shard counts like the lifecycle suites.
// ErrShed must only ever land on sheddable submissions. That admission
// sheds at all is asserted first and without a race: before Start
// nothing drains the ingress buffers, so sheddable submissions fill every
// shard to the sheddable watermark and the next one must be shed while a
// standard one still fits; standard submissions then fill every shard to
// standard's watermark, the next is refused, and a critical one still
// fits — the reserve is critical's alone. (Shedding used to be inferred
// from the chaos phase — eight clients outrunning the dispatchers into
// 8-slot buffers — and failed about one run in four, more often the
// faster the runtime.)
func TestChaosSheddingOverloadStop(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			s := New(chaosHandler{}, Options{
				Workers: 4, Shards: shards,
				Quantum: 100 * time.Microsecond,
				Policy:  PolicyCascade,
				// A tiny buffer keeps the sheddable watermark in easy
				// reach, so admission sheds from the first burst.
				SubmitBuffer:   8,
				ClassAdmission: true,
				DrainTimeout:   500 * time.Millisecond,
				PinThreads:     false,
			})
			var early []<-chan Response
			for i := 0; i < shards*s.classLimit[ClassSheddable]; i++ {
				early = append(early, s.Submit(chaosReq{kind: "quick", class: ClassSheddable}))
			}
			if resp := <-s.Submit(chaosReq{kind: "quick", class: ClassSheddable}); resp.Err != ErrShed {
				t.Fatalf("sheddable submission past the watermark on every shard: err = %v, want ErrShed", resp.Err)
			}
			for len(early) < shards*s.classLimit[ClassStandard] {
				early = append(early, s.Submit(chaosReq{kind: "quick", class: ClassStandard}))
			}
			if resp := <-s.Submit(chaosReq{kind: "quick", class: ClassStandard}); resp.Err != ErrQueueFull {
				t.Fatalf("standard submission into the critical reserve on every shard: err = %v, want ErrQueueFull", resp.Err)
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

			time.Sleep(2 * time.Millisecond)
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
