package live

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
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

// BenchmarkDoTwoClients is the benchmark's dispatch_null in one package:
// two goroutines call Do on a two-worker server with a zero-work
// handler, so nearly every request is placed and ns/op is the placed
// path's cost per request, two callers sharing the server. Each client
// makes half of the b.N calls; they share no counter. With a CPU for
// each client, one client's request costs twice ns/op (scripts/ledger.sh
// sets that against BenchmarkLedger's hops).
func BenchmarkDoTwoClients(b *testing.B) {
	s := New(yieldTimesHandler{}, testOptions(2, 0))
	s.Start()
	defer s.Stop()
	var payload any = yieldTimes(0)
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for c, n := range []int{b.N / 2, b.N - b.N/2} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if resp := s.Do(payload); resp.Err != nil {
					b.Errorf("client %d: %v", c, resp.Err)
					return
				}
			}
		}()
	}
	wg.Wait()
	reportTicks(b)
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
		start := nanotime()
		for i := 0; i < b.N; i++ {
			if nanotime()-start >= int64(time.Hour) {
				b.Fatal("slice over")
			}
		}
	})
	b.Run("shipped", func(b *testing.B) {
		s := New(&spinHandler{}, testOptions(1, time.Hour))
		ex := s.workers[0]
		ex.sliceStart = nanotime()
		c := &Ctx{srv: s, task: &task{}, ex: ex} // no time-sharing Gosched: the probe alone
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Poll()
		}
		reportTicks(b)
	})
}

// BenchmarkNanotime is one read of each of the runtime's clocks: "vdso"
// is the monotonic clock through the vDSO (time.Since(epoch), nanotime
// where the TSC is not trusted), "tsc" is nanotime mapping an rdtsc, and
// "agree" reads time.Since(epoch) between two nanotime reads, over every
// anchor the run crosses (-benchtime 2s reads for about two seconds). It
// reports the largest and the 99th-percentile distance of that reading
// from the pair's midpoint (max_ns, p99_ns) over the pairs at most 150 ns
// apart — a wider pair was interrupted, which says nothing of the
// mapping — and, over every pair, the furthest the reading fell outside
// it (outside_ns), which the mapping's error must be at least.
func BenchmarkNanotime(b *testing.B) {
	b.Run("vdso", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkNS = int64(time.Since(epoch))
		}
	})
	b.Run("tsc", func(b *testing.B) {
		if !useTSC {
			b.Skip("the TSC is not trusted here: nanotime is the vdso row")
		}
		for i := 0; i < b.N; i++ {
			sinkNS = nanotime()
		}
	})
	b.Run("agree", func(b *testing.B) {
		if !useTSC {
			b.Skip("the TSC is not trusted here: nanotime is the vdso row")
		}
		var hist [1 << 10]int // |distance from the midpoint| in ns, capped
		narrow, worst, outside := 0, 0, int64(0)
		for i := 0; i < b.N; i++ {
			a := nanotime()
			m := int64(time.Since(epoch))
			z := nanotime()
			outside = max(outside, a-m, m-z)
			if z-a <= 150 {
				d := int(m - (a+z)/2)
				d = max(d, -d)
				worst = max(worst, d)
				hist[min(d, len(hist)-1)]++
				narrow++
			}
		}
		p99, seen := 0, hist[0]
		for seen < narrow*99/100 {
			p99++
			seen += hist[p99]
		}
		b.ReportMetric(float64(worst), "max_ns")
		b.ReportMetric(float64(p99), "p99_ns")
		b.ReportMetric(float64(outside), "outside_ns")
	})
}

var sinkNS int64
