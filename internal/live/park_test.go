package live

// Placement and parking: a Do on an idle server is dispatched by its own
// caller, a dispatcher with nothing to do blocks, and everything that
// needs a parked dispatcher wakes it. No row sleeps to find out whether
// a dispatcher has parked: the park gate says so.

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"concord/internal/obs"
)

// parkWatch counts how often the dispatcher has parked; it is
// testParkGate for the rest of the test that made it.
type parkWatch struct{ parks atomic.Int32 }

func watchParks(t *testing.T) *parkWatch {
	w := &parkWatch{}
	testParkGate = func() { w.parks.Add(1) }
	t.Cleanup(func() { testParkGate = nil })
	return w
}

// count returns how often the dispatcher has parked so far.
func (w *parkWatch) count() int { return int(w.parks.Load()) }

// wait returns once s's dispatcher has parked and is parked now.
func (w *parkWatch) wait(t *testing.T, s *Server) {
	t.Helper()
	waitUntil(t, "the dispatcher to park", func() bool {
		return w.count() > 0 && s.disp.parked.Load()
	})
}

// dispatcherRows names the rows of the tables that once ran at one and
// at two dispatcher shards. The names stay, so each table keeps its
// subtests; every row now runs the one dispatcher, with n workers where
// a row's worker count followed its shard count.
var dispatcherRows = []struct {
	name string
	n    int
}{{"shards1", 1}, {"shards2", 2}}

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

// ingressSubmitted is how many requests s accepted through its ingress,
// in every class: none of them were placed.
func ingressSubmitted(s *Server) uint64 {
	var n uint64
	for c := range s.stats.classSubmitted {
		n += s.stats.classSubmitted[c].Load()
	}
	return n
}

// TestDoPlacesOnIdleShard: on an idle server a Do is dispatched by its
// caller — the dispatch event is on the client's ring and nothing ever
// reaches the central queue — while a request already waiting keeps its
// place: a Do that finds one goes through the policy queue like any
// submission, so under SRPT a short Do still runs before the long
// requests queued ahead of it.
func TestDoPlacesOnIdleShard(t *testing.T) {
	quietDispatcher(t)
	for _, row := range dispatcherRows {
		t.Run("idle/"+row.name, func(t *testing.T) {
			opts := testOptions(2, 0)
			opts.Tracer = obs.NewTracer(2, 1<<12)
			s := New(&spinHandler{}, opts)
			s.Start()
			var ids []uint64
			for i := 0; i < 100; i++ {
				resp := s.Do(time.Duration(0))
				if resp.Err != nil || resp.Breakdown == nil {
					t.Fatalf("request %d: err %v, breakdown %v", i, resp.Err, resp.Breakdown)
				}
				if d := s.Depths(); d.Central != 0 || d.Submit != 0 {
					t.Fatalf("request %d went through the dispatcher: depths %+v", i, d)
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
		waiting := s.Submit(hintedSpin{hint: time.Millisecond})
		if s.place(0) >= 0 {
			t.Fatal("placed past a request in the ingress buffer")
		}
		s.ingest(<-s.disp.submit)
		if s.place(0) >= 0 {
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
		if ring := dispatchRings(opts.Tracer)[resp.ID]; ring != obs.WriterDispatcher {
			t.Fatalf("queued Do dispatched from ring %d, want the dispatcher's %d", ring, obs.WriterDispatcher)
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
			if ring := dispatchRings(opts.Tracer)[r2.ID]; ring != obs.WriterDispatcher {
				t.Fatalf("second request dispatched from ring %d, want the dispatcher's %d", ring, obs.WriterDispatcher)
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

// TestParkedDispatcherWakes starts each row from a parked dispatcher and
// wakes it one way: a submission, Stop, or the drain abort — and one
// row, a polling slice, needs no wake at all: its preemption arrives
// with the dispatcher still parked. A
// wake-up that does not arrive shows as a request never answered or a
// Stop that hangs; every row also ends on Submitted == Completed.
func TestParkedDispatcherWakes(t *testing.T) {
	quietDispatcher(t)
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
	// Each row runs once per worker count in workers, under the names of
	// dispatcherRows.
	rows := []struct {
		name    string
		workers []int
		tune    func(*Options)
		wake    func(t *testing.T, s *Server, h *yieldHandler, parks *parkWatch)
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
			before := parks.count()
			var woken atomic.Bool
			testRequeueGate = func() {
				if !s.disp.parked.Load() || parks.count() != before {
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
	}
	for _, row := range rows {
		for _, workers := range row.workers {
			t.Run(fmt.Sprintf("%s/%s", row.name, dispatcherRows[workers-1].name), func(t *testing.T) {
				parks := watchParks(t)
				h := &yieldHandler{release: make(chan struct{})}
				opts := Options{Workers: workers, Quantum: time.Hour, QueueBound: 1}
				if row.tune != nil {
					row.tune(&opts)
				}
				s := New(h, opts)
				s.Start()
				parks.wait(t, s)
				row.wake(t, s, h, parks)
				stopWithin(t, s)
				if st := s.Stats(); st.Submitted != st.Completed {
					t.Fatalf("submitted %d, completed %d", st.Submitted, st.Completed)
				}
			})
		}
	}
}

// TestParkedStartLifecycle runs the lifecycle tables once more with the
// dispatcher parked before the first submission.
func TestParkedStartLifecycle(t *testing.T) {
	for _, onDispatcher := range []bool{false, true} {
		t.Run(fmt.Sprintf("onDispatcher=%v", onDispatcher), func(t *testing.T) {
			runLifecycleRows(t, onDispatcher, true)
		})
	}
}

// TestSelfTimedSliceWithoutDispatcher: a slice needs no dispatcher to
// end it. The dispatcher is held inside its park gate — not merely
// parked, where a wake could still reach it, but stopped — until the
// request has yielded; the request is placed by its Do caller and polls
// until its 100µs quantum runs out. It yields all the same, and once the
// dispatcher is let go it is answered exactly once. A runtime whose
// dispatcher must signal the slice never yields here: the request gives
// up after awaitSignal's half minute and answers with that error.
func TestSelfTimedSliceWithoutDispatcher(t *testing.T) {
	for _, row := range dispatcherRows {
		t.Run(row.name, func(t *testing.T) {
			var held atomic.Int32
			var once sync.Once
			yielded := make(chan struct{})
			release := func() { once.Do(func() { close(yielded) }) }
			testParkGate = func() {
				held.Add(1)
				<-yielded
			}
			testRequeueGate = release
			t.Cleanup(func() {
				release()
				testParkGate, testRequeueGate = nil, nil
			})

			s := New(&yieldHandler{}, Options{Workers: row.n, Quantum: 100 * time.Microsecond, QueueBound: 1})
			s.Start()
			waitUntil(t, "the dispatcher to be held in its park", func() bool { return held.Load() == 1 })
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
				t.Fatalf("err %v, %d preemptions, want at least one with the dispatcher held", resp.Err, resp.Preemptions)
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
	for _, row := range dispatcherRows {
		t.Run(row.name, func(t *testing.T) {
			// Sized so that reserving with a plain Add instead of the
			// compare-and-swap fails here in most runs.
			const workers, doers, submitters, perClient = 2, 6, 2, 2000
			opts := testOptions(workers, 0)
			opts.Tracer = obs.NewTracer(workers, 1<<14)
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

// TestPlaceRacesStopGated: a placed request takes no lock against Stop,
// so place checks stopped after the compare-and-swap that lends it a
// worker. The place gate holds a Do or TryDo caller between the two
// while Stop runs, and lets it go before or after Stop has set stopped
// (before: the test holds submitMu's read lock, which Stop must take for
// writing first). Let go before, the request was placed ahead of the
// stop and is served. Let go after, place gives the worker's slots back
// and declines, and the ingress path rejects the request with
// ErrServerStopped (TryDo on its callback, as SubmitFunc would). Either
// way there is exactly one response, Stop returns, and the one attempt
// is accounted for: submitted + rejected = 1, and submitted = completed,
// which counts expired and aborted requests too (there are none).
func TestPlaceRacesStopGated(t *testing.T) {
	for _, row := range dispatcherRows {
		for _, try := range []bool{false, true} {
			for _, afterStop := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/trydo=%v/afterStop=%v", row.name, try, afterStop), func(t *testing.T) {
					placeRacesStop(t, try, afterStop)
				})
			}
		}
	}
}

func placeRacesStop(t *testing.T, try, afterStop bool) {
	entered, release := make(chan struct{}), make(chan struct{})
	var gated sync.Once
	testPlaceGate = func() { gated.Do(func() { close(entered); <-release }) }
	defer func() { testPlaceGate = nil }()

	s := New(&spinHandler{}, testOptions(2, 0))
	s.Start()

	answered := make(chan Response, 2)
	go func() {
		if !try {
			answered <- s.Do(time.Duration(0))
		} else if resp, placed := s.TryDo(time.Duration(0), func(r Response) { answered <- r }); placed {
			answered <- resp
		}
	}()
	<-entered // a worker's slots taken, the stop check still ahead

	if !afterStop {
		s.submitMu.RLock()
	}
	stopped := make(chan struct{})
	go func() { s.Stop(); close(stopped) }()
	if afterStop {
		waitUntil(t, "Stop to set stopped", s.stopped.Load)
	}
	close(release)
	var resp Response
	select {
	case resp = <-answered:
	case <-time.After(10 * time.Second):
		t.Fatal("the placing request was never answered")
	}
	if !afterStop {
		s.submitMu.RUnlock()
	}
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop hung")
	}

	switch {
	case afterStop && !errors.Is(resp.Err, ErrServerStopped):
		t.Fatalf("let go after Stop set stopped: err = %v, want ErrServerStopped", resp.Err)
	case !afterStop && resp.Err != nil:
		t.Fatalf("let go before Stop set stopped: err = %v, want served", resp.Err)
	}
	if len(answered) != 0 {
		t.Fatalf("a second response: %+v", <-answered)
	}
	st := s.Stats()
	if st.Submitted+st.Rejected != 1 || st.Submitted != st.Completed || st.Expired+st.Aborted != 0 {
		t.Fatalf("one attempt, stats %+v", st)
	}
}

// TestPlacedBreakdownExact: a placed request that does not yield has no
// hand-off and no queue wait to time — its arrival is its first slice's
// start — so, traced, its Breakdown is all service: Handoff, Queue and
// Preempted are exactly 0, and Breakdown.Service and Response.Service
// both equal Latency. Do and TryDo; that every request was placed is
// checked, not assumed: none took the ingress.
func TestPlacedBreakdownExact(t *testing.T) {
	for _, row := range dispatcherRows {
		for _, try := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trydo=%v", row.name, try), func(t *testing.T) {
				opts := testOptions(2, 0)
				opts.Tracer = obs.NewTracer(2, 1<<12)
				s := New(yieldTimesHandler{}, opts)
				s.Start()
				defer s.Stop()
				for i := 0; i < 100; i++ {
					resp, placed := Response{}, true
					if try {
						resp, placed = s.TryDo(yieldTimes(0), func(Response) { t.Error("TryDo called back for a placed request") })
					} else {
						resp = s.Do(yieldTimes(0))
					}
					if !placed || resp.Err != nil {
						t.Fatalf("request %d: placed %v, err %v", i, placed, resp.Err)
					}
					if b := resp.Breakdown; b == nil || *b != (Breakdown{Service: resp.Latency}) || resp.Service != resp.Latency {
						t.Fatalf("request %d: Latency %v, Service %v, Breakdown %+v; want all of it service", i, resp.Latency, resp.Service, b)
					}
				}
				if n := ingressSubmitted(s); n != 0 {
					t.Fatalf("%d requests took the ingress", n)
				}
			})
		}
	}
}

// TestPlacedYieldingAnswersOnce: a placed Do or TryDo whose request
// yields takes a response channel at its first yield and waits on it
// while workers run the later slices; it gets exactly one response — its
// own payload echoed, Preemptions equal to its yields — and TryDo's
// callback is never called. Every request was placed: none took the
// ingress, and every one is counted completed.
func TestPlacedYieldingAnswersOnce(t *testing.T) {
	for _, row := range dispatcherRows {
		for _, try := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trydo=%v", row.name, try), func(t *testing.T) {
				s := New(yieldTimesHandler{}, Options{Workers: 2, Quantum: time.Hour})
				s.Start()
				yields := []yieldTimes{1, 5, 1, 5}
				for i, k := range yields {
					waitUntil(t, "every worker idle", func() bool { return busyWorkers(s) == 0 })
					resp, placed := Response{}, true
					if try {
						resp, placed = s.TryDo(k, func(Response) { t.Error("TryDo called back for a placed request") })
					} else {
						resp = s.Do(k)
					}
					if !placed || resp.Err != nil || resp.Req != any(k) || resp.Preemptions != int(k) {
						t.Fatalf("request %d (%d yields): placed %v, err %v, Req %v, Preemptions %d",
							i, k, placed, resp.Err, resp.Req, resp.Preemptions)
					}
				}
				s.Stop()
				st := s.Stats()
				if n := ingressSubmitted(s); n != 0 || st.Submitted != 4 || st.Completed != 4 || st.Preemptions != 12 {
					t.Fatalf("ingress %d, stats %+v; want 4 placed and completed, 12 preemptions", n, st)
				}
			})
		}
	}
}

// gatedYield is a request that closes started, waits for proceed without
// polling, yields once and returns — after waiting for hold, also without
// polling, when it has one.
type gatedYield struct{ started, proceed, hold chan struct{} }

type gatedYieldHandler struct{ yieldTimesHandler }

func (gatedYieldHandler) Handle(ctx *Ctx, payload any) (any, error) {
	g, ok := payload.(gatedYield)
	if !ok {
		return yieldTimesHandler{}.Handle(ctx, payload)
	}
	close(g.started)
	<-g.proceed
	yieldNow(ctx)
	if g.hold != nil {
		<-g.hold
	}
	return nil, nil
}

// TestPlacedDetachedRetiredByDrain: a placed request that has yielded —
// detached from its caller, which now waits on a channel — and is still
// queued when the drain deadline passes is retired: resumed with the
// abort on its caller's goroutine, unwound, and answered ErrServerStopped
// on that channel, exactly once, and counted Aborted. The request yields
// behind a blocker that takes the server's one worker, so it is queued,
// not running, when the deadline passes. Do and TryDo.
func TestPlacedDetachedRetiredByDrain(t *testing.T) {
	quietDispatcher(t)
	for _, try := range []bool{false, true} {
		t.Run(fmt.Sprintf("trydo=%v", try), func(t *testing.T) {
			opts := testOptions(1, time.Hour)
			opts.QueueBound = 1
			opts.DrainTimeout = time.Millisecond
			s := New(gatedYieldHandler{}, opts)
			s.Start()
			g := gatedYield{started: make(chan struct{}), proceed: make(chan struct{})}
			answered := make(chan Response, 2)
			go func() {
				if !try {
					answered <- s.Do(g)
				} else if resp, placed := s.TryDo(g, func(r Response) { answered <- r }); placed {
					answered <- resp
				}
			}()
			<-g.started // placed: its caller runs it as the one worker
			if n := ingressSubmitted(s); n != 0 {
				t.Fatalf("the request took the ingress (%d)", n)
			}
			release := make(chan struct{})
			blocker := s.Submit(release)
			waitUntil(t, "the blocker to queue", func() bool { return s.Depths().Central == 1 })
			close(g.proceed)
			waitUntil(t, "the blocker to run and the yielded request to queue", func() bool {
				d := s.Depths()
				return d.Central == 1 && d.Workers[0] == 1 && s.Stats().Preemptions == 1
			})
			stopped := make(chan struct{})
			go func() { s.Stop(); close(stopped) }()
			var resp Response
			select {
			case resp = <-answered:
			case <-time.After(10 * time.Second):
				t.Fatal("the detached request was never answered")
			}
			if !errors.Is(resp.Err, ErrServerStopped) || resp.Req != any(g) || resp.Preemptions != 1 {
				t.Fatalf("err %v, Req %v, Preemptions %d; want ErrServerStopped, its own payload, 1", resp.Err, resp.Req, resp.Preemptions)
			}
			close(release)
			if r := <-blocker; r.Err != nil {
				t.Fatalf("blocker: %v", r.Err)
			}
			select {
			case <-stopped:
			case <-time.After(10 * time.Second):
				t.Fatal("Stop hung")
			}
			if len(answered) != 0 {
				t.Fatalf("a second response: %+v", <-answered)
			}
			if st := s.Stats(); st.Submitted != 2 || st.Completed != 2 || st.Aborted != 1 {
				t.Fatalf("stats %+v; want 2 submitted and completed, 1 aborted", st)
			}
		})
	}
}

// TestPlacedKeepsSpare: a placed request that finishes in its first
// slice runs in its worker's spare task and leaves it there, so a
// worker's placed requests all run in the one task — none comes from or
// goes back to taskPool. Do and TryDo.
func TestPlacedKeepsSpare(t *testing.T) {
	s := New(yieldTimesHandler{}, testOptions(1, 0))
	s.Start()
	defer s.Stop()
	ex := s.workers[0]
	var spare *task
	for i := 0; i < 100; i++ {
		resp, placed := Response{}, true
		if i%2 == 0 {
			resp = s.Do(yieldTimes(0))
		} else {
			resp, placed = s.TryDo(yieldTimes(0), func(Response) { t.Error("TryDo called back for a placed request") })
		}
		if !placed || resp.Err != nil {
			t.Fatalf("request %d: placed %v, err %v", i, placed, resp.Err)
		}
		if i == 0 {
			spare = ex.spare
		}
		if ex.spare == nil || ex.spare != spare || !reflect.ValueOf(ex.spare.taskState).IsZero() {
			t.Fatalf("request %d: the worker's spare is %p, want %p kept, its state reset", i, ex.spare, spare)
		}
	}
	if n := ingressSubmitted(s); n != 0 {
		t.Fatalf("%d requests took the ingress", n)
	}
}

// TestPlacedYieldGivesUpSpare: a placed request runs in its worker's
// spare task, and one that yields takes that task with it, so the next
// request placed on the same worker runs in a task of its own. The first
// request is placed on worker 1 (a blocker holds worker 0), yields, is
// resumed on worker 0 (idle again by then, and the lowest) and waits
// there; a second placed request then lands on worker 1 while the first
// is still unanswered. Each is answered once, with its own payload and
// its own id. Do and TryDo.
func TestPlacedYieldGivesUpSpare(t *testing.T) {
	for _, try := range []bool{false, true} {
		t.Run(fmt.Sprintf("trydo=%v", try), func(t *testing.T) {
			s := New(gatedYieldHandler{}, testOptions(2, time.Hour))
			s.Start()
			do := func(payload any, answered chan<- Response) {
				if !try {
					answered <- s.Do(payload)
				} else if resp, placed := s.TryDo(payload, func(r Response) { t.Error("TryDo called back for a placed request") }); placed {
					answered <- resp
				} else {
					t.Error("TryDo did not place")
				}
			}
			await := func(what string, answered <-chan Response) Response {
				t.Helper()
				select {
				case resp := <-answered:
					return resp
				case <-time.After(10 * time.Second):
					t.Fatalf("%s was never answered", what)
					return Response{}
				}
			}

			release := make(chan struct{})
			blocker := s.Submit(release)
			waitUntil(t, "the blocker to hold worker 0", func() bool { return s.Depths().Workers[0] == 1 })
			g := gatedYield{started: make(chan struct{}), proceed: make(chan struct{}), hold: make(chan struct{})}
			first := make(chan Response, 2)
			go do(g, first)
			<-g.started // placed on worker 1, the one idle worker
			close(release)
			if r := <-blocker; r.Err != nil {
				t.Fatalf("blocker: %v", r.Err)
			}
			waitUntil(t, "worker 0 idle", func() bool { return s.Depths().Workers[0] == 0 })
			close(g.proceed)
			waitUntil(t, "the yielded request to resume on worker 0 and worker 1 to idle", func() bool {
				d := s.Depths()
				return s.Stats().Preemptions == 1 && d.Workers[0] == 1 && d.Workers[1] == 0 && d.Central == 0
			})

			var second yieldTimes
			answered := make(chan Response, 2)
			go do(second, answered)
			resp := await("the second request", answered)
			if resp.Err != nil || resp.Req != any(second) || resp.Preemptions != 0 {
				t.Fatalf("second request: err %v, Req %v, Preemptions %d; want its own payload, served in one slice",
					resp.Err, resp.Req, resp.Preemptions)
			}
			close(g.hold)
			got := await("the yielded request", first)
			if got.Err != nil || got.Req != any(g) || got.Preemptions != 1 {
				t.Fatalf("yielded request: err %v, Req %v, Preemptions %d; want its own payload, 1", got.Err, got.Req, got.Preemptions)
			}
			if got.ID == resp.ID {
				t.Fatalf("both requests answered as id %d", got.ID)
			}
			if n := ingressSubmitted(s); n != 1 {
				t.Fatalf("%d requests took the ingress, want only the blocker", n)
			}
			s.Stop()
			if len(first)+len(answered) != 0 {
				t.Fatal("a second response")
			}
			if st := s.Stats(); st.Submitted != 3 || st.Completed != 3 {
				t.Fatalf("stats %+v; want 3 submitted and completed", st)
			}
		})
	}
}
