package live

import (
	"sync/atomic"
	"testing"
	"time"

	"concord/internal/obs"
)

// BenchmarkRoundTrip measures the runtime's per-request overhead: a
// no-work handler through submit, dispatch, JBSQ push, execution, and
// response delivery.
func BenchmarkRoundTrip(b *testing.B) {
	s := New(&spinHandler{}, testOptions(2, 0))
	s.Start()
	defer s.Stop()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resp := s.Do(time.Duration(0)); resp.Err != nil {
			b.Fatal(resp.Err)
		}
	}
}

// BenchmarkRoundTripSubmitFunc is BenchmarkRoundTrip through the
// callback path connection layers use: no response channel of the
// server's, so its allocs/op is the runtime's own (0 in steady state).
func BenchmarkRoundTripSubmitFunc(b *testing.B) {
	s := New(&spinHandler{}, testOptions(2, 0))
	s.Start()
	defer s.Stop()
	answered := make(chan error, 1)
	done := func(r Response) { answered <- r.Err }
	var payload any = time.Duration(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SubmitFunc(payload, done)
		if err := <-answered; err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRoundTripTraced is BenchmarkRoundTrip with the obs tracer
// enabled: the delta is the full per-request cost of lifecycle tracing
// (ring records plus breakdown timestamps).
func BenchmarkRoundTripTraced(b *testing.B) {
	s := New(&spinHandler{}, tracedOptions(2, 0, 1<<14))
	s.Start()
	defer s.Stop()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resp := s.Do(time.Duration(0)); resp.Err != nil {
			b.Fatal(resp.Err)
		}
	}
}

// BenchmarkRoundTripTailTracked is BenchmarkRoundTrip with the rolling
// tail window and SLO accounting enabled: the delta is the enabled cost
// of windowed tail tracking per request (one sketch insert under the ring lock
// plus one SLO count).
func BenchmarkRoundTripTailTracked(b *testing.B) {
	o := testOptions(2, 0)
	o.Tail = obs.NewTailTracker(nil, obs.NewSLOTracker(obs.SLOConfig{Target: 200 * time.Microsecond}))
	s := New(&spinHandler{}, o)
	s.Start()
	defer s.Stop()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resp := s.Do(time.Duration(0)); resp.Err != nil {
			b.Fatal(resp.Err)
		}
	}
}

// BenchmarkPreemptedRequest measures a 500µs request under a 100µs
// quantum: the full yield/requeue/redispatch cycle several times over.
func BenchmarkPreemptedRequest(b *testing.B) {
	s := New(&spinHandler{}, testOptions(1, 100*time.Microsecond))
	s.Start()
	defer s.Stop()
	b.ResetTimer()
	preempts := 0
	for i := 0; i < b.N; i++ {
		resp := s.Do(500 * time.Microsecond)
		if resp.Err != nil {
			b.Fatal(resp.Err)
		}
		preempts += resp.Preemptions
	}
	b.ReportMetric(float64(preempts)/float64(b.N), "preempts/req")
}

// BenchmarkPoll is the paper's Fig. 2 on this runtime: what one probe
// costs on its fast path (the slice is not over) for each way of
// noticing that a slice is over — the c_proc the instrumentation adds
// per poll. "flag" is the paper's mechanism, a load of a padded cache
// line a dispatcher would write, kept as the reference; "clock" reads
// the clock on every poll, the paper's rdtsc probe; "shipped" is Poll
// itself, which reads it on every pollCheckEvery-th poll.
func BenchmarkPoll(b *testing.B) {
	b.Run("flag", func(b *testing.B) {
		var line struct {
			_    [cacheLinePad]byte
			flag atomic.Uint64
			_    [cacheLinePad - 8]byte
		}
		for i := 0; i < b.N; i++ {
			if line.flag.Load() != 0 {
				b.Fatal("flag set")
			}
		}
	})
	b.Run("clock", func(b *testing.B) {
		start := time.Now()
		for i := 0; i < b.N; i++ {
			if time.Since(start) >= time.Hour {
				b.Fatal("slice over")
			}
		}
	})
	b.Run("shipped", func(b *testing.B) {
		s := New(&spinHandler{}, testOptions(1, time.Hour))
		ex := s.workers[0]
		ex.sliceStart = time.Now()
		c := &Ctx{srv: s, task: &task{}, ex: ex} // no time-sharing Gosched: the probe alone
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Poll()
		}
	})
}
