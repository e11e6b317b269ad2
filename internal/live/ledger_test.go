package live

import (
	"testing"
)

// BenchmarkLedger is the placed path's cycle ledger: one row per hop of
// an untraced Do that places its request and finishes it in the first
// slice (Do → runPlaced: home, place, fill → runSlice → handle → endSlice
// → finish),
// each timing what that hop costs, and reporting it in TSC ticks as well
// as nanoseconds (reportTicks). A row runs the runtime's own function
// where the hop is one, and the statement where it is a line inside one
// (the line it copies is named); scripts/ledger.sh counts each row as
// often as a request crosses it, sums the rows and sets the sum against
// the whole path: "whole" here, one caller's Do, and
// BenchmarkDoTwoClients. What the rows leave out — the frames between
// them, the response's other fields and its copy back up the stack, and
// in BenchmarkDoTwoClients two callers sharing the server — is the
// residual.
func BenchmarkLedger(b *testing.B) {
	// clock: one nanotime, an rdtsc mapped onto the monotonic clock.
	// A request reads it twice: its arrival (Do) and its end
	// (endSlice).
	b.Run("clock", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkNS = nanotime()
		}
		reportTicks(b)
	})
	// newID: the request's id from its task's block (one atomic add on
	// the server's line in idBlockLen requests).
	b.Run("newID", func(b *testing.B) {
		s, t := New(yieldTimesHandler{}, testOptions(2, 0)), &task{}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.newID(t)
		}
		reportTicks(b)
	})
	// probes: fill's reads of the payload (its deadline, hint and
	// class), copied from it.
	b.Run("probes", func(b *testing.B) {
		s, t := New(yieldTimesHandler{}, testOptions(2, 0)), &task{}
		var payload any = yieldTimes(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if d := s.opts.RequestTimeout; d > 0 {
				t.deadline = t.arrival + int64(d)
			}
			if h, ok := payload.(Hinted); ok {
				if hint := int64(h.ServiceHint()); hint > 0 {
					t.hintNS = hint
				}
			}
			if c, ok := payload.(SLOClassed); ok {
				if cl := c.SLOClass(); cl > 0 && cl < NumClasses {
					t.class = uint8(cl)
				}
			}
		}
		reportTicks(b)
	})
	// home: where place starts its scan, the caller's processor index
	// (runtime.procPin and procUnpin) modulo the workers.
	b.Run("home", func(b *testing.B) {
		s := New(yieldTimesHandler{}, testOptions(2, 0))
		for i := 0; i < b.N; i++ {
			sinkInt = s.home()
		}
		reportTicks(b)
	})
	// place: runPlaced without its slice — place's checks and its
	// compare-and-swap on an idle worker's occupancy, and the release of
	// the slots.
	b.Run("place", func(b *testing.B) {
		s := New(yieldTimesHandler{}, testOptions(2, 0))
		s.Start()
		defer s.Stop()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w := s.place(0)
			if w < 0 {
				b.Fatal("an idle server did not place")
			}
			s.occ[w].Store(0)
		}
		reportTicks(b)
	})
	// handle: runSlice's write of the Ctx and the handle call — its
	// deferred closure and the Handler interface call, here
	// BenchmarkDoTwoClients' zero-work handler.
	b.Run("handle", func(b *testing.B) {
		s, t := New(yieldTimesHandler{}, testOptions(2, 0)), newTask()
		ex, ctx := s.workers[0], &t.ctx
		t.payload = yieldTimes(0)
		var resp Response
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			*ctx = Ctx{srv: s, task: t, ex: ex, yieldEvery: s.coopTimeshare}
			s.handle(ctx, t, &resp)
		}
		reportTicks(b)
	})
	// count: finish's one count for a placed request, an atomic add on
	// its executor's line.
	b.Run("count", func(b *testing.B) {
		s, t := New(yieldTimesHandler{}, testOptions(2, 0)), &task{}
		ex := s.workers[0]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ex.n.classPlaced[t.class].Add(1)
		}
		reportTicks(b)
	})
	// done: finish's stamp of Response.Done from the slice's end.
	b.Run("done", func(b *testing.B) {
		end := nanotime()
		for i := 0; i < b.N; i++ {
			sinkResp.Done = Stamp(end)
		}
		reportTicks(b)
	})
	// reset: finish's zeroing of the request's state in its worker's
	// spare, which stays on the worker for the next placement.
	b.Run("reset", func(b *testing.B) {
		t := newTask()
		for i := 0; i < b.N; i++ {
			t.reset()
		}
		reportTicks(b)
	})
	// whole: the path itself, one caller's placed Do on
	// BenchmarkDoTwoClients' server.
	b.Run("whole", func(b *testing.B) {
		s := New(yieldTimesHandler{}, testOptions(2, 0))
		s.Start()
		defer s.Stop()
		var payload any = yieldTimes(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if resp := s.Do(payload); resp.Err != nil {
				b.Fatal(resp.Err)
			}
		}
		reportTicks(b)
	})
}

var (
	sinkResp Response
	sinkInt  int
)

// reportTicks adds b's ns/op in TSC ticks, at the rate clock.go
// calibrated (the slope of its last fit), as ticks/op. It reports
// nothing where nanotime does not read the TSC, or before a fit.
func reportTicks(b *testing.B) {
	if !useTSC {
		return
	}
	nanotime()
	tsc.mu.Lock()
	mul := tsc.fitMul // nanoseconds per tick, 32.32 fixed point
	tsc.mu.Unlock()
	if mul == 0 || b.N == 0 {
		return
	}
	ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(ns*(1<<32)/float64(mul), "ticks/op")
}
