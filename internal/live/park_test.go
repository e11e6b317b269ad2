package live

// Placement and parking: a Do on an idle shard is dispatched by its own
// caller, a dispatcher with nothing to do blocks, and everything that
// needs a parked dispatcher wakes it. No row sleeps to find out whether
// a dispatcher has parked: the park gate says so.

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"concord/internal/obs"
)

// parkWatch counts, per shard, how often its dispatcher has parked; it
// is testParkGate for the rest of the test that made it.
type parkWatch struct {
	mu    sync.Mutex
	parks map[*shard]int
}

func watchParks(t *testing.T) *parkWatch {
	w := &parkWatch{parks: map[*shard]int{}}
	testParkGate = func(sh *shard) {
		w.mu.Lock()
		w.parks[sh]++
		w.mu.Unlock()
	}
	t.Cleanup(func() { testParkGate = nil })
	return w
}

// counts returns how often each of s's shards has parked so far.
func (w *parkWatch) counts(s *Server) []int {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]int, len(s.shards))
	for i, sh := range s.shards {
		out[i] = w.parks[sh]
	}
	return out
}

// wait returns once every shard of s has parked more often than since
// says (nil: at all) and is parked now.
func (w *parkWatch) wait(t *testing.T, s *Server, since []int) {
	t.Helper()
	waitUntil(t, "every dispatcher to park", func() bool {
		for i, n := range w.counts(s) {
			if (since != nil && n <= since[i]) || n == 0 || !s.shards[i].parked.Load() {
				return false
			}
		}
		return true
	})
}

// dispatchRings maps each request id to the ring its first EvDispatch
// was recorded on (the snapshot is in time order).
func dispatchRings(tr *obs.Tracer) map[uint64]int {
	out := map[uint64]int{}
	for _, e := range tr.Snapshot() {
		if _, seen := out[e.Req]; !seen && e.Kind == obs.EvDispatch {
			out[e.Req] = e.Ring
		}
	}
	return out
}

// busyWorkers is the server's total JBSQ occupancy.
func busyWorkers(s *Server) int {
	n := 0
	for _, o := range s.Depths().Workers {
		n += o
	}
	return n
}

// TestDoPlacesOnIdleShard: on an idle shard a Do is dispatched by its
// caller — the dispatch event is on the client's ring and nothing ever
// reaches the central queue — while a request already waiting keeps its
// place: a Do that finds one goes through the policy queue like any
// submission, so under SRPT a short Do still runs before the long
// requests queued ahead of it.
func TestDoPlacesOnIdleShard(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("idle/shards%d", shards), func(t *testing.T) {
			opts := testOptions(2, 0)
			opts.Shards = shards
			opts.Tracer = obs.NewTracerSharded(2, shards, 1<<12)
			s := New(&spinHandler{}, opts)
			s.Start()
			var ids []uint64
			for i := 0; i < 100; i++ {
				resp := s.Do(time.Duration(0))
				if resp.Err != nil || resp.Breakdown == nil {
					t.Fatalf("request %d: err %v, breakdown %v", i, resp.Err, resp.Breakdown)
				}
				if d := s.Depths(); d.Central != 0 || d.Submit != 0 {
					t.Fatalf("request %d went through the shard: depths %+v", i, d)
				}
				ids = append(ids, resp.ID)
			}
			s.Stop()
			rings := dispatchRings(opts.Tracer)
			for _, id := range ids {
				if ring, ok := rings[id]; !ok || ring != obs.WriterClient {
					t.Fatalf("request %d dispatched from ring %d (recorded %v), want the client's %d", id, ring, ok, obs.WriterClient)
				}
			}
		})
	}

	t.Run("declines-past-waiting-work", func(t *testing.T) {
		// The server counts as started, but no loop runs yet: the test
		// alone moves tasks, and the worker is idle throughout.
		s := New(&blockingHandler{release: make(chan struct{})}, testOptions(1, 0))
		s.started.Store(true)
		sh, probe := s.shards[0], newTask()
		waiting := s.Submit(hintedSpin{hint: time.Millisecond})
		if s.place(probe, true) >= 0 {
			t.Fatal("placed past a request in the ingress buffer")
		}
		s.ingest(sh, <-sh.submit)
		if s.place(probe, true) >= 0 {
			t.Fatal("placed past a request in the policy queue")
		}
		if o := s.occ[0].Load(); o != 0 {
			t.Fatalf("declined placements left occupancy %d", o)
		}
		s.Start()
		if resp := <-waiting; resp.Err != nil {
			t.Fatal(resp.Err)
		}
		s.Stop()
	})

	t.Run("srpt-order", func(t *testing.T) {
		h := &blockingHandler{release: make(chan struct{})}
		opts := tracedOptions(1, 0, 1<<10)
		opts.Policy, opts.QueueBound = PolicySRPT, 1
		s := New(h, opts)
		s.Start()
		blocked := s.Submit("block")
		waitUntil(t, "the blocker to hold the worker", func() bool { return s.Depths().Workers[0] == 1 })
		longs := []<-chan Response{
			s.Submit(hintedSpin{hint: 400 * time.Microsecond}),
			s.Submit(hintedSpin{hint: 300 * time.Microsecond}),
		}
		waitUntil(t, "both long requests to queue", func() bool { return s.Depths().Central == 2 })
		short := make(chan Response, 1)
		go func() { short <- s.Do(hintedSpin{hint: 100 * time.Microsecond}) }()
		waitUntil(t, "the short Do to queue behind them", func() bool { return s.Depths().Central == 3 })
		close(h.release)
		<-blocked
		resp := <-short
		for _, ch := range longs {
			if r := <-ch; r.Err != nil {
				t.Fatal(r.Err)
			}
		}
		s.Stop()
		if resp.Err != nil {
			t.Fatal(resp.Err)
		}
		if ring := dispatchRings(opts.Tracer)[resp.ID]; ring != obs.DispatcherWriter(0) {
			t.Fatalf("queued Do dispatched from ring %d, want the dispatcher's %d", ring, obs.DispatcherWriter(0))
		}
		h.order.mu.Lock()
		got := append([]time.Duration(nil), h.order.hints...)
		h.order.mu.Unlock()
		want := []time.Duration{100 * time.Microsecond, 300 * time.Microsecond, 400 * time.Microsecond}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("run order %v, want %v", got, want)
		}
	})
}

// TestPlaceDoesNotOvertakeIngestingTask: a task the dispatcher has
// received from the ingress but not yet pushed onto the policy queue is
// in neither, and is still waiting. The ingest gate holds the dispatcher
// in that window; a Do or TryDo issued meanwhile must not place: it goes
// through the queue (dispatched from the dispatcher's ring, TryDo
// reporting false and answering through its callback) and, under fcfs,
// runs after the held task.
func TestPlaceDoesNotOvertakeIngestingTask(t *testing.T) {
	for _, row := range []struct {
		name  string
		issue func(s *Server, p any) <-chan Response
	}{
		{"Do", func(s *Server, p any) <-chan Response {
			ch := make(chan Response, 1)
			go func() { ch <- s.Do(p) }()
			return ch
		}},
		{"TryDo", func(s *Server, p any) <-chan Response {
			ch := make(chan Response, 1)
			if resp, placed := s.TryDo(p, func(r Response) { ch <- r }); placed {
				ch <- resp
			}
			return ch
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			entered, release := make(chan struct{}), make(chan struct{})
			var held sync.Once
			testIngestGate = func() { held.Do(func() { close(entered); <-release }) }
			t.Cleanup(func() { testIngestGate = nil })
			h := &blockingHandler{}
			opts := tracedOptions(1, 0, 1<<10)
			s := New(h, opts)
			s.Start()
			first := s.Submit(hintedSpin{hint: 1})
			<-entered
			second := row.issue(s, hintedSpin{hint: 2})
			waitUntil(t, "the second request to wait in the ingress or be answered", func() bool {
				return s.Depths().Submit == 1 || len(second) == 1
			})
			if len(second) == 1 {
				t.Fatal("the second request was answered while the first was held between ingress and queue: it overtook")
			}
			close(release)
			r1, r2 := <-first, <-second
			s.Stop()
			if r1.Err != nil || r2.Err != nil {
				t.Fatal(r1.Err, r2.Err)
			}
			if ring := dispatchRings(opts.Tracer)[r2.ID]; ring != obs.DispatcherWriter(0) {
				t.Fatalf("second request dispatched from ring %d, want the dispatcher's %d", ring, obs.DispatcherWriter(0))
			}
			h.order.mu.Lock()
			got := fmt.Sprint(h.order.hints)
			h.order.mu.Unlock()
			if got != "[1ns 2ns]" {
				t.Fatalf("run order %s, want [1ns 2ns]", got)
			}
		})
	}
}

// TestParkedDispatcherWakes starts each row from parked dispatchers and
// wakes them one way: a submission, Stop, the drain abort, or a
// sibling's backlog — and one row, a polling slice, needs no wake at
// all: its preemption arrives with the dispatcher still parked. A
// wake-up that does not arrive shows as a request never answered or a
// Stop that hangs; every row also ends on Submitted == Completed.
func TestParkedDispatcherWakes(t *testing.T) {
	answered := func(t *testing.T, ch <-chan Response) Response {
		t.Helper()
		select {
		case resp := <-ch:
			return resp
		case <-time.After(15 * time.Second):
			t.Fatal("request never answered")
			return Response{}
		}
	}
	do := func(s *Server, payload any) <-chan Response {
		ch := make(chan Response, 1)
		go func() { ch <- s.Do(payload) }()
		return ch
	}
	stopWithin := func(t *testing.T, s *Server) {
		t.Helper()
		stopped := make(chan struct{})
		go func() { s.Stop(); close(stopped) }()
		select {
		case <-stopped:
		case <-time.After(15 * time.Second):
			t.Fatal("Stop hung")
		}
	}
	rows := []struct {
		name   string
		shards []int
		tune   func(*Options)
		wake   func(t *testing.T, s *Server, h *yieldHandler, parks *parkWatch)
	}{
		{"Submit", []int{1, 2}, nil, func(t *testing.T, s *Server, _ *yieldHandler, _ *parkWatch) {
			if resp := answered(t, s.Submit(yieldReq{})); resp.Err != nil {
				t.Fatal(resp.Err)
			}
		}},
		{"SubmitFunc", []int{1, 2}, nil, func(t *testing.T, s *Server, _ *yieldHandler, _ *parkWatch) {
			ch := make(chan Response, 1)
			s.SubmitFunc(yieldReq{}, func(r Response) { ch <- r })
			if resp := answered(t, ch); resp.Err != nil {
				t.Fatal(resp.Err)
			}
		}},
		{"polling-slice", []int{1}, func(o *Options) {
			o.Quantum = 100 * time.Microsecond
			o.Tracer = obs.NewTracer(1, 1<<10)
		}, func(t *testing.T, s *Server, _ *yieldHandler, parks *parkWatch) {
			// Placed by its caller, nothing wakes the parked dispatcher
			// before the slice has timed itself out: when the yield reaches
			// the requeue, ahead of the re-submit that does wake it, the
			// dispatcher is still in the park it was in before the Do.
			before := parks.counts(s)[0]
			var woken atomic.Bool
			testRequeueGate = func() {
				if !s.shards[0].parked.Load() || parks.counts(s)[0] != before {
					woken.Store(true)
				}
			}
			t.Cleanup(func() { testRequeueGate = nil })
			resp := answered(t, do(s, yieldReq{yields: 1, await: true}))
			if resp.Err != nil || resp.Preemptions != 1 {
				t.Fatalf("err %v, preemptions %d, want the expiry it waited for", resp.Err, resp.Preemptions)
			}
			if woken.Load() {
				t.Fatal("the dispatcher left its park before the slice yielded")
			}
			stopWithin(t, s)
			if ring := dispatchRings(s.opts.Tracer)[resp.ID]; ring != obs.WriterClient {
				t.Fatalf("first slice dispatched from ring %d, want the client's: the row did not start placed", ring)
			}
		}},
		{"Stop", []int{1, 2}, nil, func(t *testing.T, s *Server, h *yieldHandler, _ *parkWatch) {
			// A placed blocker never polls: only Stop can wake the
			// dispatcher that has to see the drain finish.
			blocked := do(s, "block")
			waitUntil(t, "the blocker to hold a worker", func() bool { return busyWorkers(s) == 1 })
			stopped := make(chan struct{})
			go func() { s.Stop(); close(stopped) }()
			close(h.release)
			if resp := answered(t, blocked); resp.Err != nil {
				t.Fatal(resp.Err)
			}
			select {
			case <-stopped:
			case <-time.After(15 * time.Second):
				t.Fatal("Stop hung on a parked dispatcher")
			}
		}},
		{"DrainTimeout", []int{1, 2}, func(o *Options) { o.DrainTimeout = 5 * time.Millisecond },
			func(t *testing.T, s *Server, _ *yieldHandler, _ *parkWatch) {
				// Never expires under an hour-long quantum: only the abort
				// ends it.
				pending := do(s, yieldReq{yields: -1, await: true})
				waitUntil(t, "the request to hold a worker", func() bool { return busyWorkers(s) == 1 })
				stopWithin(t, s)
				if resp := answered(t, pending); !errors.Is(resp.Err, ErrServerStopped) {
					t.Fatalf("err %v, want ErrServerStopped", resp.Err)
				}
			}},
		{"sibling-backlog", []int{2, 4}, nil, func(t *testing.T, s *Server, h *yieldHandler, _ *parkWatch) {
			// Everything lands on shard 0, whose one worker a blocker
			// holds: only a sibling can run the rest, and it is parked.
			onShard0 := func() { s.rr.Store(uint64(len(s.shards) - 1)) }
			onShard0()
			blocked := s.Submit("block")
			waitUntil(t, "the blocker to hold shard 0's worker", func() bool { return s.Depths().Workers[0] == 1 })
			var backlog []<-chan Response
			for i := 0; i < 3; i++ {
				onShard0()
				backlog = append(backlog, s.Submit(yieldReq{}))
			}
			for _, ch := range backlog {
				if resp := answered(t, ch); resp.Err != nil {
					t.Fatal(resp.Err)
				}
			}
			if s.Stats().Steals == 0 {
				t.Fatal("backlog answered without a steal")
			}
			close(h.release)
			answered(t, blocked)
		}},
	}
	for _, row := range rows {
		for _, shards := range row.shards {
			t.Run(fmt.Sprintf("%s/shards%d", row.name, shards), func(t *testing.T) {
				parks := watchParks(t)
				h := &yieldHandler{release: make(chan struct{})}
				opts := Options{Workers: shards, Shards: shards, Quantum: time.Hour, QueueBound: 1}
				if row.tune != nil {
					row.tune(&opts)
				}
				s := New(h, opts)
				s.Start()
				parks.wait(t, s, nil)
				row.wake(t, s, h, parks)
				stopWithin(t, s)
				if st := s.Stats(); st.Submitted != st.Completed {
					t.Fatalf("submitted %d, completed %d", st.Submitted, st.Completed)
				}
			})
		}
	}
}

// TestParkedStartLifecycle runs the lifecycle tables once more with
// every dispatcher parked before the first submission.
func TestParkedStartLifecycle(t *testing.T) {
	for _, onDispatcher := range []bool{false, true} {
		t.Run(fmt.Sprintf("onDispatcher=%v", onDispatcher), func(t *testing.T) {
			runLifecycleRows(t, onDispatcher, true)
		})
	}
}

// TestSelfTimedSliceWithoutDispatcher: a slice needs no dispatcher to
// end it. Every dispatcher is held inside its park gate — not merely
// parked, where a wake could still reach it, but stopped — until the
// request has yielded; the request is placed by its Do caller and polls
// until its 100µs quantum runs out. It yields all the same, and once the
// dispatchers are let go it is answered exactly once. A runtime whose
// dispatcher must signal the slice never yields here: the request gives
// up after awaitSignal's half minute and answers with that error.
func TestSelfTimedSliceWithoutDispatcher(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			var held atomic.Int32
			var once sync.Once
			yielded := make(chan struct{})
			release := func() { once.Do(func() { close(yielded) }) }
			testParkGate = func(*shard) {
				held.Add(1)
				<-yielded
			}
			testRequeueGate = release
			t.Cleanup(func() {
				release()
				testParkGate, testRequeueGate = nil, nil
			})

			s := New(&yieldHandler{}, Options{Workers: shards, Shards: shards, Quantum: 100 * time.Microsecond, QueueBound: 1})
			s.Start()
			waitUntil(t, "every dispatcher to be held in its park", func() bool { return held.Load() == int32(shards) })
			answer := make(chan Response, 2)
			go func() { answer <- s.Do(yieldReq{yields: 1, await: true}) }()
			var resp Response
			select {
			case resp = <-answer:
			case <-time.After(time.Minute):
				t.Fatal("request never answered")
			}
			release() // already, unless the request gave up waiting
			s.Stop()
			if resp.Err != nil || resp.Preemptions < 1 {
				t.Fatalf("err %v, %d preemptions, want at least one with every dispatcher held", resp.Err, resp.Preemptions)
			}
			if len(answer) != 0 {
				t.Fatal("request answered twice")
			}
			if st := s.Stats(); st.Submitted != 1 || st.Completed != 1 {
				t.Fatalf("submitted %d, completed %d, want 1 and 1", st.Submitted, st.Completed)
			}
		})
	}
}

// occProbe answers at once and counts the requests that found their
// worker over the JBSQ bound.
type occProbe struct{ over atomic.Int32 }

func (*occProbe) Setup()          {}
func (*occProbe) SetupWorker(int) {}
func (p *occProbe) Handle(ctx *Ctx, payload any) (any, error) {
	if w := ctx.Worker(); w >= 0 && ctx.srv.occ[w].Load() > int32(ctx.srv.opts.QueueBound) {
		p.over.Add(1)
	}
	return payload, nil
}

// TestPlaceRacesDispatcherJBSQBound: Do callers placing their own
// requests race a dispatcher placing SubmitFunc traffic on the same
// workers, and no worker's occupancy ever passes QueueBound — not as a
// watcher sees it, nor as a request on its worker does. Both placers
// must have placed for the row to count.
func TestPlaceRacesDispatcherJBSQBound(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			// Sized so that reserving with a plain Add instead of the
			// compare-and-swap fails here in most runs.
			const workers, doers, submitters, perClient = 2, 6, 2, 2000
			opts := testOptions(workers, 0)
			opts.Shards = shards
			opts.Tracer = obs.NewTracerSharded(workers, shards, 1<<14)
			p := &occProbe{}
			s := New(p, opts)
			s.Start()

			var maxOcc atomic.Int32
			done, watched := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(watched)
				for {
					for w := range s.occ {
						if o := s.occ[w].Load(); o > maxOcc.Load() {
							maxOcc.Store(o)
						}
					}
					select {
					case <-done:
						return
					default:
						runtime.Gosched()
					}
				}
			}()
			var wg sync.WaitGroup
			for c := 0; c < doers+submitters; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					answered := make(chan struct{}, 1)
					for i := 0; i < perClient; i++ {
						if c < doers {
							if resp := s.Do(i); resp.Err != nil {
								t.Error(resp.Err)
								return
							}
							continue
						}
						s.SubmitFunc(i, func(Response) { answered <- struct{}{} })
						<-answered
					}
				}(c)
			}
			wg.Wait()
			close(done)
			<-watched
			s.Stop()

			if o := maxOcc.Load(); o > int32(opts.QueueBound) {
				t.Fatalf("a worker's occupancy reached %d, bound %d", o, opts.QueueBound)
			}
			if n := p.over.Load(); n > 0 {
				t.Fatalf("%d requests ran on a worker over the bound", n)
			}
			byClient, byDispatcher := 0, 0
			for _, ring := range dispatchRings(opts.Tracer) {
				if ring == obs.WriterClient {
					byClient++
				} else {
					byDispatcher++
				}
			}
			if byClient == 0 || byDispatcher == 0 {
				t.Fatalf("placements by caller %d, by dispatcher %d: the placers never raced", byClient, byDispatcher)
			}
			if st := s.Stats(); st.Submitted != st.Completed || st.Submitted != (doers+submitters)*perClient {
				t.Fatalf("submitted %d, completed %d, want both %d", st.Submitted, st.Completed, (doers+submitters)*perClient)
			}
		})
	}
}
