// Quickstart: run the live Concord runtime in-process and watch
// cooperative preemption bound tail latency.
//
// A single worker serves a bimodal stream: many 50µs requests and a few
// 5ms "scans". Without preemption the short requests get stuck behind
// the scans; with a 200µs quantum the scans yield and the short
// requests' tail collapses. In both runs the dispatcher conserves work:
// while the worker's JBSQ slots are full it runs a never-started request
// itself, a slice at a time (the "run by dispatcher" counter).
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"math/rand"
	"time"

	"concord/internal/live"
	"concord/internal/obs"
)

// spinner is the synthetic service of §5.1: it spins for the requested
// duration, polling for preemption as instrumented code would.
type spinner struct{}

func (spinner) Setup()          {}
func (spinner) SetupWorker(int) {}
func (spinner) Handle(ctx *live.Ctx, payload any) (any, error) {
	ctx.Spin(payload.(time.Duration))
	return nil, nil
}

func run(name string, quantum time.Duration) float64 {
	srv := live.New(spinner{}, live.Options{
		Workers:    1,
		Quantum:    quantum,
		QueueBound: 2,
		PinThreads: false,
	})
	srv.Start()
	defer srv.Stop()

	rng := rand.New(rand.NewSource(42))
	var slowdown obs.QuantileSketch // sojourn / service, in percent: the sketch holds integers
	var pending []<-chan live.Response
	var services []time.Duration

	for i := 0; i < 200; i++ {
		service := 50 * time.Microsecond
		if rng.Float64() < 0.05 {
			service = 5 * time.Millisecond
		}
		pending = append(pending, srv.Submit(service))
		services = append(services, service)
		time.Sleep(time.Duration(rng.ExpFloat64() * float64(150*time.Microsecond)))
	}
	for i, ch := range pending {
		resp := <-ch
		slowdown.Observe(int64(100 * float64(resp.Latency) / float64(services[i])))
	}
	st := srv.Stats()
	snap := slowdown.Snapshot()
	q := func(p float64) float64 { return snap.Quantile(p) / 100 }
	fmt.Printf("%-20s n=%d slowdown p50=%.1f p90=%.1f p99=%.1f p99.9=%.1f mean=%.1f\n",
		name, snap.Count, q(0.50), q(0.90), q(0.99), q(0.999), snap.Mean()/100)
	fmt.Printf("%-20s server counters: %d completed, %d preemptions, %d run by dispatcher\n\n",
		"", st.Completed, st.Preemptions, st.DispatcherRun)
	return q(0.99)
}

func main() {
	fmt.Println("Concord quickstart: 1 worker, 95% x 50µs + 5% x 5ms requests")
	fmt.Println()
	fcfs := run("FCFS (q=0):", 0)
	concord := run("Concord (q=200µs):", 200*time.Microsecond)
	fmt.Printf("With preemption, short requests no longer wait out entire 5ms scans:\n")
	fmt.Printf("p99 slowdown %.0fx -> %.0fx (%.1fx better) at identical load.\n", fcfs, concord, fcfs/concord)
}
