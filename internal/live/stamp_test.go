package live

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// arrivalHandler records the arrival stamp of the request it runs.
type arrivalHandler struct{ arrival atomic.Int64 }

func (*arrivalHandler) Setup()          {}
func (*arrivalHandler) SetupWorker(int) {}
func (h *arrivalHandler) Handle(ctx *Ctx, _ any) (any, error) {
	h.arrival.Store(ctx.task.arrival)
	return nil, nil
}

// TestResponseDoneStamp: Done is a reading of the runtime's clock taken
// as the request completes, on a placed Do and through the ingress
// alike: it lies between two reads taken around the request, Done −
// Latency is exactly the arrival the runtime stamped, and Sub reads as
// the time.Time Time builds.
func TestResponseDoneStamp(t *testing.T) {
	h := &arrivalHandler{}
	s := New(h, testOptions(2, 0))
	s.Start()
	defer s.Stop()
	for _, path := range []struct {
		name string
		do   func() Response
	}{
		{"placed Do", func() Response { return s.Do(nil) }},
		{"Submit", func() Response { return <-s.Submit(nil) }},
	} {
		t.Run(path.name, func(t *testing.T) {
			before := NowStamp().Time()
			resp := path.do()
			after := NowStamp().Time()
			if resp.Err != nil {
				t.Fatal(resp.Err)
			}
			if done := resp.Done.Time(); done.Before(before) || done.After(after) {
				t.Fatalf("Done %v outside the reads around the request [%v, %v]", done, before, after)
			}
			if arrival := resp.Done - Stamp(resp.Latency); arrival != Stamp(h.arrival.Load()) {
				t.Fatalf("Done − Latency = %d, want the arrival %d", arrival, h.arrival.Load())
			}
			for _, base := range []time.Time{before, time.Now(), before.Round(0)} {
				if got, want := resp.Done.Sub(base), resp.Done.Time().Sub(base); got != want {
					t.Fatalf("Done.Sub(%v) = %v, Done.Time().Sub = %v", base, got, want)
				}
			}
		})
	}
}

// TestRejectedDoneStamp: a request that is never accepted is answered
// with its Done set, between two NowStamp reads around the submission.
func TestRejectedDoneStamp(t *testing.T) {
	s := New(&arrivalHandler{}, testOptions(1, 0))
	s.Start()
	s.Stop()
	before := NowStamp()
	resp := <-s.Submit(nil)
	after := NowStamp()
	if !errors.Is(resp.Err, ErrServerStopped) {
		t.Fatalf("err %v, want ErrServerStopped", resp.Err)
	}
	if resp.Done.IsZero() || resp.Done < before || resp.Done > after {
		t.Fatalf("rejected Done %d, want set and within [%d, %d]", resp.Done, before, after)
	}
}

// TestAbortUnwindsParkedRequest: a request parked after a yield when the
// drain deadline passes is resumed to unwind — its handler's defers run —
// and answered with ErrServerStopped, placed or not.
func TestAbortUnwindsParkedRequest(t *testing.T) {
	for _, placed := range []bool{true, false} {
		opts := testOptions(1, time.Hour)
		opts.DrainTimeout = time.Millisecond
		h := &yieldHandler{release: make(chan struct{})}
		s := New(h, opts)
		s.Start()
		answered := make(chan Response, 1)
		if placed {
			go func() { answered <- s.Do(yieldReq{yields: -1}) }()
		} else {
			go func() { answered <- <-s.Submit(yieldReq{yields: -1}) }()
		}
		waitUntil(t, "the request to have yielded", func() bool { return h.yielded.Load() == 1 })
		s.Stop()
		if resp := <-answered; !errors.Is(resp.Err, ErrServerStopped) {
			t.Fatalf("placed %v: err %v, want ErrServerStopped", placed, resp.Err)
		}
		if n := h.unwound.Load(); n != 1 {
			t.Fatalf("placed %v: %d handlers unwound, want 1", placed, n)
		}
	}
}

// TestReleaseKeepsNoServer: a recycled task keeps its Ctx for the next
// first slice to overwrite, but not the server it last ran on. (The task
// comes from the pool, with its handshake channels: the pool must never
// be handed one without them.)
func TestReleaseKeepsNoServer(t *testing.T) {
	s := New(&arrivalHandler{}, testOptions(1, 0))
	tk := newTask()
	tk.ctx = Ctx{srv: s, task: tk, ex: s.workers[0]}
	tk.release()
	if tk.ctx.srv != nil {
		t.Fatal("a released task still holds its server")
	}
}
