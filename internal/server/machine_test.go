package server

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"concord/internal/cost"
	"concord/internal/dist"
	"concord/internal/mech"
	"concord/internal/stats"
)

func fixedWL(us float64) Workload {
	return Workload{Dist: dist.NewFixed(us)}
}

func lowLoadParams(n int) RunParams {
	return RunParams{Requests: n, Seed: 42}
}

func TestSingleRequestLowLoadSlowdownNearOne(t *testing.T) {
	m := cost.Default()
	cfg := Concord(m, 2, 5)
	wl := fixedWL(10)
	wl.Arrival = dist.NewPoisson(1000) // 1 kRps: essentially no queueing
	res := New(cfg, wl, RunParams{Requests: 2000, Seed: 1}).Run()
	if res.Saturated {
		t.Fatal("saturated at 1 kRps on 2 workers")
	}
	if res.Completed != res.Admitted {
		t.Fatalf("completed %d of %d", res.Completed, res.Admitted)
	}
	p50 := res.Point.P50
	// Sojourn = dispatch pipeline + service; for a 10µs request the fixed
	// costs are well under 1µs, so slowdown should be just over 1.
	if p50 < 1 || p50 > 1.3 {
		t.Fatalf("p50 slowdown = %v, want ≈1", p50)
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	m := cost.Default()
	cfg := Concord(m, 4, 5)
	wl := Workload{Dist: dist.Bimodal(50, 1, 50, 100)}
	wl.Arrival = dist.NewPoisson(30000)
	a := New(cfg, wl, RunParams{Requests: 5000, Seed: 7}).Run()
	b := New(cfg, wl, RunParams{Requests: 5000, Seed: 7}).Run()
	if a.Point.P999 != b.Point.P999 || a.Point.AchievedKRps != b.Point.AchievedKRps {
		t.Fatalf("same seed differs: %+v vs %+v", a.Point, b.Point)
	}
	c := New(cfg, wl, RunParams{Requests: 5000, Seed: 8}).Run()
	if a.Point.P999 == c.Point.P999 && a.Point.P50 == c.Point.P50 {
		t.Fatal("different seeds produced identical results (suspicious)")
	}
}

func TestPreemptionOccursForLongRequests(t *testing.T) {
	m := cost.Default()
	cfg := Shinjuku(m, 2, 5)
	wl := fixedWL(100) // every request needs ~20 preemptions at q=5µs
	wl.Arrival = dist.NewPoisson(1000)
	var pre int
	mach := New(cfg, wl, RunParams{Requests: 500, Seed: 3})
	mach.OnComplete = func(r *Request) { pre += r.Preemptions }
	res := mach.Run()
	if res.Completed == 0 {
		t.Fatal("nothing completed")
	}
	avg := float64(pre) / float64(res.Completed)
	if avg < 15 || avg > 22 {
		t.Fatalf("avg preemptions = %v, want ≈19-20 for 100µs at q=5µs", avg)
	}
}

func TestNoPreemptionWithoutQuantum(t *testing.T) {
	m := cost.Default()
	cfg := PersephoneFCFS(m, 2)
	wl := fixedWL(100)
	wl.Arrival = dist.NewPoisson(1000)
	mach := New(cfg, wl, RunParams{Requests: 500, Seed: 3})
	mach.OnComplete = func(r *Request) {
		if r.Preemptions != 0 {
			t.Fatalf("request preempted %d times under run-to-completion", r.Preemptions)
		}
	}
	mach.Run()
}

func TestFCFSHeadOfLineBlocking(t *testing.T) {
	// Without preemption, short requests get stuck behind 500µs requests;
	// with preemption they do not. This is the paper's core premise.
	m := cost.Default()
	wl := Workload{Dist: dist.Bimodal(99.5, 0.5, 0.5, 500)}
	wl.Arrival = dist.NewPoisson(200000) // 200 kRps on 4 workers: ~15% util
	p := RunParams{Requests: 100000, Seed: 5}

	fcfs := New(PersephoneFCFS(m, 4), wl, p).Run()
	shin := New(Shinjuku(m, 4, 5), wl, p).Run()
	if fcfs.Saturated || shin.Saturated {
		t.Fatalf("saturated at low load: fcfs=%v shinjuku=%v", fcfs.Saturated, shin.Saturated)
	}
	// The p99.9 under FCFS must reflect blocking behind 500µs requests
	// (slowdown in the hundreds for 0.5µs requests), while preemptive
	// scheduling bounds it near the quantum.
	if fcfs.Point.P999 < 100 {
		t.Errorf("FCFS p99.9 = %v, expected severe head-of-line blocking (>100)", fcfs.Point.P999)
	}
	if shin.Point.P999 > fcfs.Point.P999/2 {
		t.Errorf("preemption did not help: shinjuku %v vs fcfs %v", shin.Point.P999, fcfs.Point.P999)
	}
}

func TestJBSQOccupancyBounded(t *testing.T) {
	m := cost.Default()
	for _, k := range []int{1, 2, 3} {
		cfg := Concord(m, 4, 5)
		cfg.QueueBound = k
		cfg.WorkConserving = false
		wl := fixedWL(2)
		wl.Arrival = dist.NewPoisson(1_500_000) // overload
		mach := New(cfg, wl, RunParams{Requests: 30000, Seed: 9, MaxCentralQueue: 50000})
		// Check the invariant on every dispatcher op application.
		done := false
		check := func() {
			if done {
				return
			}
			for i, o := range mach.occ {
				if o > k || o < 0 {
					t.Errorf("occ[%d] = %d outside [0,%d]", i, o, k)
					done = true
				}
				actual := len(mach.workers[i].local)
				if mach.workers[i].cur != nil {
					actual++
				}
				if actual > k {
					t.Errorf("worker %d holds %d requests > bound %d", i, actual, k)
					done = true
				}
			}
		}
		mach.OnComplete = func(*Request) { check() }
		mach.Run()
		check()
	}
}

func TestWorkConservingDispatcherCompletesRequests(t *testing.T) {
	m := cost.Default()
	cfg := Concord(m, 2, 5)
	wl := fixedWL(20)
	wl.Arrival = dist.NewPoisson(110_000) // just above 2-worker capacity (100k)
	res := New(cfg, wl, RunParams{Requests: 50000, Seed: 11}).Run()
	if res.Point.StolenFrac <= 0 {
		t.Fatal("work-conserving dispatcher never processed a request above worker capacity")
	}
	// Without work conservation the same load saturates.
	cfg2 := ConcordNoSteal(m, 2, 5)
	res2 := New(cfg2, wl, RunParams{Requests: 50000, Seed: 11}).Run()
	if !res2.Saturated && res.Saturated {
		t.Fatal("stealing made things worse")
	}
	if res.Point.AchievedKRps <= res2.Point.AchievedKRps {
		t.Errorf("work conservation did not raise throughput: %v vs %v kRps",
			res.Point.AchievedKRps, res2.Point.AchievedKRps)
	}
}

func TestDispatcherOnlyStealsNonStarted(t *testing.T) {
	m := cost.Default()
	cfg := Concord(m, 2, 5)
	wl := Workload{Dist: dist.Bimodal(50, 1, 50, 100)}
	wl.Arrival = dist.NewPoisson(200_000)
	mach := New(cfg, wl, RunParams{Requests: 30000, Seed: 13, MaxCentralQueue: 100000})
	mach.OnComplete = func(r *Request) {
		if r.onDispatcher && r.Preemptions > 0 {
			t.Fatalf("stolen request %d was preempted on a worker", r.ID)
		}
	}
	mach.Run()
}

func TestSaturationDetected(t *testing.T) {
	m := cost.Default()
	cfg := Shinjuku(m, 2, 5)
	wl := fixedWL(10)
	wl.Arrival = dist.NewPoisson(1_000_000) // 5× the 2-worker capacity
	res := New(cfg, wl, RunParams{Requests: 50000, Seed: 15, MaxCentralQueue: 10000}).Run()
	if !res.Saturated {
		t.Fatal("overload not flagged as saturated")
	}
	if !math.IsInf(res.Point.P999, 1) {
		t.Fatalf("saturated P999 = %v, want +Inf", res.Point.P999)
	}
}

func TestWorkerIdleLowerWithJBSQ(t *testing.T) {
	// Fig. 3's mechanism: at short service times, single-queue workers
	// stall on the synchronous handoff; JBSQ(2) workers do not.
	m := cost.Default()
	wl := fixedWL(2)
	p := RunParams{Requests: 100000, Seed: 17, MaxCentralQueue: 1 << 21}
	load := 2_000_000.0 // 4 workers at 2µs: offered slightly above capacity

	sq := Shinjuku(m, 4, 100) // quantum larger than service: no preemption
	sq.Name = "SQ"
	wl.Arrival = dist.NewPoisson(load)
	rSQ := New(sq, wl, p).Run()

	jb := CoopJBSQ(m, 4, 100)
	rJB := New(jb, wl, p).Run()

	if rJB.Point.WorkerIdle >= rSQ.Point.WorkerIdle {
		t.Fatalf("JBSQ idle %v >= SQ idle %v", rJB.Point.WorkerIdle, rSQ.Point.WorkerIdle)
	}
	if ratio := rSQ.Point.WorkerIdle / math.Max(rJB.Point.WorkerIdle, 1e-9); ratio < 3 {
		t.Errorf("SQ/JBSQ idle ratio = %.1f, want >= 3 (paper: 9-13×)", ratio)
	}
}

func TestCriticalSectionDefersYield(t *testing.T) {
	m := cost.Default()
	cfg := Concord(m, 1, 5)
	cfg.WorkConserving = false
	// Requests of 50µs holding a lock for the first 60% (30µs): the first
	// preemption cannot happen before 30µs.
	wl := Workload{
		Dist:            dist.NewFixed(50),
		CritFracByClass: map[string]float64{"fixed": 0.6},
	}
	wl.Arrival = dist.NewPoisson(1000)
	mach := New(cfg, wl, RunParams{Requests: 300, Seed: 19})
	mach.OnComplete = func(r *Request) {
		// 50µs at q=5µs would be ~9 preemptions unlocked; deferring the
		// first yield to 30µs leaves at most ~5.
		if r.Preemptions > 6 {
			t.Fatalf("request preempted %d times despite 30µs critical section", r.Preemptions)
		}
	}
	mach.Run()
}

func TestDeferWholeRequestDisablesPreemption(t *testing.T) {
	m := cost.Default()
	cfg := ShinjukuDeferAPI(m, 1, 5)
	wl := Workload{
		Dist:            dist.NewFixed(100),
		CritFracByClass: map[string]float64{"fixed": 0.01},
	}
	wl.Arrival = dist.NewPoisson(1000)
	mach := New(cfg, wl, RunParams{Requests: 300, Seed: 21})
	mach.OnComplete = func(r *Request) {
		if r.Preemptions != 0 {
			t.Fatalf("defer-whole-request still preempted %d times", r.Preemptions)
		}
	}
	mach.Run()
}

func TestSweepMonotoneSaturation(t *testing.T) {
	m := cost.Default()
	cfg := Shinjuku(m, 4, 5)
	wl := Workload{Dist: dist.NewFixed(10)}
	curve := Sweep(cfg, wl, []float64{50, 150, 250, 350, 450}, RunParams{Requests: 30000, Seed: 23, MaxCentralQueue: 100000})
	if len(curve.Points) != 5 {
		t.Fatalf("sweep returned %d points", len(curve.Points))
	}
	// 4 workers at 10µs ≈ 400 kRps capacity: the last point must be
	// saturated, the first must not be.
	if math.IsInf(curve.Points[0].P999, 1) {
		t.Error("50 kRps saturated on 4 workers at 10µs")
	}
	if !math.IsInf(curve.Points[4].P999, 1) && curve.Points[4].P999 < stats.DefaultSLOSlowdown {
		t.Errorf("450 kRps (>capacity) shows healthy p999 = %v", curve.Points[4].P999)
	}
	if _, ok := curve.MaxLoadUnderSLO(stats.DefaultSLOSlowdown); !ok {
		t.Error("no load met the SLO")
	}
}

func TestValidate(t *testing.T) {
	m := cost.Default()
	bad := []Config{
		{Name: "no-workers", Workers: 0, QueueBound: 1, Model: m},
		{Name: "no-bound", Workers: 1, QueueBound: 0, Model: m},
		{Name: "neg-quantum", Workers: 1, QueueBound: 1, QuantumUS: -1, Model: m},
		{Name: "quantum-no-mech", Workers: 1, QueueBound: 1, QuantumUS: 5, Model: m},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %q validated but is invalid", c.Name)
		}
	}
	good := Concord(m, 14, 5)
	if err := good.Validate(); err != nil {
		t.Errorf("Concord preset invalid: %v", err)
	}
	_ = mech.None{}
	_ = lowLoadParams
}

// TestRunAllocsPerRequest is the simulator's allocation floor: a run
// allocates its machine (timers, queues, the sample reservoir) and then
// nothing per event, so a whole 20 000-request run divided by its requests
// stays far under one allocation. It was 13.7 for Concord while every
// hand-off to a stalled worker built a closure. Bytes are bounded too: the
// reservoir is sized once for the run's 16-byte samples, where growing it
// by append from 4 096 entries of a 32-byte sample cost 113–131 B a
// request.
func TestRunAllocsPerRequest(t *testing.T) {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector allocates on its own account")
			}
		}
	}
	const requests = 20000
	m := cost.Default()
	wl := Workload{Dist: dist.Bimodal(50, 1, 50, 100)}
	for _, cfg := range []Config{PersephoneFCFS(m, 14), Shinjuku(m, 14, 2), Concord(m, 14, 2)} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		RunAt(cfg, wl, 180, RunParams{Requests: requests, Seed: 1})
		runtime.ReadMemStats(&after)
		per := float64(after.Mallocs-before.Mallocs) / requests
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / requests
		if per >= 0.1 {
			t.Errorf("%s: %.3f allocations per simulated request, want < 0.1", cfg.Name, per)
		}
		if bytes >= 48 {
			t.Errorf("%s: %.1f B allocated per simulated request, want < 48", cfg.Name, bytes)
		}
		t.Logf("%s: %.4f allocations, %.1f B per simulated request", cfg.Name, per, bytes)
	}
}

// BenchmarkRunAtCell is one cell of the benchmark's sim_sweep grid:
// Concord on the YCSB bimodal workload at 180 kRps, 20 000 requests. Its
// B/op and allocs/op are a whole cell's, machine and samples included.
func BenchmarkRunAtCell(b *testing.B) {
	cfg := Concord(cost.Default(), 14, 2)
	wl := Workload{Dist: dist.Bimodal(50, 1, 50, 100)}
	b.ReportAllocs()
	for b.Loop() {
		RunAt(cfg, wl, 180, RunParams{Requests: 20000, Seed: 1})
	}
}
