package live

import (
	"errors"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSubmitFuncExactlyOnce: every SubmitFunc request gets its callback
// invoked exactly once, with Req echoing the submitted payload.
func TestSubmitFuncExactlyOnce(t *testing.T) {
	h := &spinHandler{}
	s := New(h, testOptions(2, 0))
	s.Start()

	const n = 200
	var calls [n]atomic.Int32
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		i := i
		s.SubmitFunc(10*time.Microsecond, func(r Response) {
			if calls[i].Add(1) != 1 {
				t.Errorf("request %d: callback invoked more than once", i)
			}
			if r.Err != nil {
				t.Errorf("request %d: err = %v", i, r.Err)
			}
			if r.Req != 10*time.Microsecond {
				t.Errorf("request %d: Req = %v", i, r.Req)
			}
			wg.Done()
		})
	}
	wg.Wait()
	s.Stop()
	for i := range calls {
		if calls[i].Load() != 1 {
			t.Fatalf("request %d: %d callback invocations", i, calls[i].Load())
		}
	}
}

// TestSubmitFuncRejection: after Stop, SubmitFunc invokes the callback
// synchronously with ErrServerStopped and the payload echoed in Req.
func TestSubmitFuncRejection(t *testing.T) {
	h := &spinHandler{}
	s := New(h, testOptions(2, 0))
	s.Start()
	s.Stop()

	called := false
	s.SubmitFunc(time.Microsecond, func(r Response) {
		called = true
		if !errors.Is(r.Err, ErrServerStopped) {
			t.Errorf("err = %v, want ErrServerStopped", r.Err)
		}
		if r.Req != time.Microsecond {
			t.Errorf("Req = %v", r.Req)
		}
	})
	if !called {
		t.Fatal("rejection callback was not invoked synchronously")
	}
}

// TestSubmitFuncDrainAbort: requests in flight when a bounded drain
// expires still get exactly one callback (with ErrServerStopped).
func TestSubmitFuncDrainAbort(t *testing.T) {
	h := &spinHandler{}
	opts := testOptions(1, 0)
	opts.DrainTimeout = 5 * time.Millisecond
	s := New(h, opts)
	s.Start()

	const n = 50
	var calls atomic.Int32
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		s.SubmitFunc(5*time.Millisecond, func(r Response) {
			calls.Add(1)
			wg.Done()
		})
	}
	s.Stop()
	wg.Wait()
	if calls.Load() != n {
		t.Fatalf("%d callbacks for %d requests", calls.Load(), n)
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// yieldTimes is a request that yields that many times through yieldNow
// and returns nothing, so that what an allocation count sees is the
// runtime's alone. A channel payload instead holds its worker, without
// polling, until the channel is closed.
type yieldTimes int

type yieldTimesHandler struct{}

func (yieldTimesHandler) Setup()          {}
func (yieldTimesHandler) SetupWorker(int) {}
func (yieldTimesHandler) Handle(ctx *Ctx, payload any) (any, error) {
	if release, ok := payload.(chan struct{}); ok {
		<-release
		return nil, nil
	}
	for i := yieldTimes(0); i < payload.(yieldTimes); i++ {
		yieldNow(ctx)
	}
	return nil, nil
}

// TestSubmitFuncZeroAllocs: a SubmitFunc round trip allocates nothing in
// steady state — the task comes from the pool, the first slice runs on
// the worker's own stack and times itself, and the caller brought its
// own callback — and neither does Do, whether it places its request
// itself (an idle server: the response comes back up its stack, through
// no channel) or goes through the policy queue (every worker slot held,
// so the
// work-conserving dispatcher runs it; the channel it waits on is
// pooled), nor TryDo on either of the same two paths. A request that is
// preempted allocates once however often it yields: the `go` statement
// that hands the executor identity to a successor at its first yield (a
// placed one's caller takes a pooled channel there).
// The same figures hold with a RequestTimeout: a task that carried a
// deadline goes back to the pool like any other.
// (The race detector makes sync.Pool drop a
// quarter of what it is given, so the figures only mean something
// without it.)
func TestSubmitFuncZeroAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool discards at random under the race detector")
	}
	rows := []struct {
		name    string
		payload any
		want    float64
	}{
		{"run to completion", yieldTimes(0), 0},
		{"one yield", yieldTimes(1), 1},
		{"five yields", yieldTimes(5), 1},
	}
	for _, cfg := range []struct{ timeout time.Duration }{{0}, {time.Hour}} {
		// An hour-long quantum: nothing signals but yieldNow. Work
		// conservation only matters once every worker slot is held.
		opts := testOptions(4, time.Hour)
		opts.RequestTimeout = cfg.timeout
		s := New(yieldTimesHandler{}, opts)
		s.Start()
		answered := make(chan struct{}, 1)
		done := func(Response) { answered <- struct{}{} }
		// TryDo answers on its callback when it could not place.
		tryDo := func(payload any) bool {
			_, placed := s.TryDo(payload, done)
			if !placed {
				<-answered
			}
			return placed
		}
		for _, tc := range rows {
			if allocs := testing.AllocsPerRun(1000, func() {
				s.SubmitFunc(tc.payload, done)
				<-answered
			}); allocs != tc.want {
				t.Errorf("%+v, %s: SubmitFunc round trip %v allocs, want %v", cfg, tc.name, allocs, tc.want)
			}
			if allocs := testing.AllocsPerRun(1000, func() { s.Do(tc.payload) }); allocs != tc.want {
				t.Errorf("%+v, %s: placed Do round trip %v allocs, want %v", cfg, tc.name, allocs, tc.want)
			}
			waitUntil(t, "every worker idle", func() bool { return busyWorkers(s) == 0 })
			if !tryDo(yieldTimes(0)) {
				t.Fatalf("%+v: a TryDo on an idle server did not place", cfg)
			}
			if allocs := testing.AllocsPerRun(1000, func() { tryDo(tc.payload) }); allocs != tc.want {
				t.Errorf("%+v, %s: placed TryDo round trip %v allocs, want %v", cfg, tc.name, allocs, tc.want)
			}
		}
		release := make(chan struct{})
		for i := 0; i < opts.Workers*opts.QueueBound; i++ {
			s.SubmitFunc(release, func(Response) {})
		}
		waitUntil(t, "every worker slot held", func() bool {
			d := s.Depths()
			return busyWorkers(s) == opts.Workers*opts.QueueBound && d.Central == 0 && d.Submit == 0
		})
		if resp := s.Do(yieldTimes(0)); !resp.OnDispatcher {
			t.Fatalf("%+v: a Do with every worker slot held did not go through the queue to the dispatcher", cfg)
		}
		if tryDo(yieldTimes(0)) {
			t.Fatalf("%+v: a TryDo with every worker slot held placed", cfg)
		}
		for _, tc := range rows {
			if allocs := testing.AllocsPerRun(1000, func() { s.Do(tc.payload) }); allocs != tc.want {
				t.Errorf("%+v, %s: queued Do round trip %v allocs, want %v", cfg, tc.name, allocs, tc.want)
			}
			if allocs := testing.AllocsPerRun(1000, func() { tryDo(tc.payload) }); allocs != tc.want {
				t.Errorf("%+v, %s: queued TryDo round trip %v allocs, want %v", cfg, tc.name, allocs, tc.want)
			}
		}
		close(release)
		s.Stop()
	}
}
