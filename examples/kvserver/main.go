// kvserver: the paper's LevelDB experiment (§5.3) in-process — the
// skiplist KV store served by the live Concord runtime under a
// ZippyDB-like mix (78% GET / 13% PUT / 6% DELETE / 3% SCAN), comparing
// run-to-completion against Concord's preemptive scheduling.
//
// Point queries bracket the store's mutex with no-preempt sections (the
// paper's lock counter); scans iterate in batches with a preemption poll
// between batches, so a database-wide scan yields cooperatively.
//
// Run with: go run ./examples/kvserver
package main

import (
	"fmt"
	"math/rand"
	"time"

	"concord/internal/kv"
	"concord/internal/live"
	"concord/internal/obs"
)

const (
	numKeys   = 15000 // the paper populates 15,000 unique keys
	scanBatch = 128
)

type kvOp struct {
	op  string
	key []byte
}

// ServiceHint gives the runtime's SRPT policy each op's expected cost
// (the paper's measured LevelDB service times): point ops are ~µs,
// scans dominate at 500µs, so hinted scheduling runs points first.
func (o kvOp) ServiceHint() time.Duration {
	if o.op == "SCAN" {
		return 500 * time.Microsecond
	}
	return 2 * time.Microsecond
}

type kvHandler struct {
	store *kv.Store
}

func (h *kvHandler) Setup() {}

func (h *kvHandler) SetupWorker(w int) {}

func (h *kvHandler) Handle(ctx *live.Ctx, payload any) (any, error) {
	req := payload.(kvOp)
	switch req.op {
	case "GET":
		ctx.BeginNoPreempt() // holds the store mutex: defer preemption
		v, ok := h.store.Get(req.key)
		ctx.EndNoPreempt()
		if !ok {
			return nil, nil
		}
		return len(v), nil
	case "PUT":
		ctx.BeginNoPreempt()
		h.store.Put(req.key, []byte("updated-value"))
		ctx.EndNoPreempt()
		return nil, nil
	case "DELETE":
		ctx.BeginNoPreempt()
		h.store.Delete(req.key)
		ctx.EndNoPreempt()
		return nil, nil
	case "SCAN":
		count := 0
		cursor := []byte(nil)
		for {
			cursor = h.store.ScanBatch(cursor, scanBatch, func(_, _ []byte) bool {
				count++
				return true
			})
			if cursor == nil {
				return count, nil
			}
			ctx.Poll() // yield point between scan batches
		}
	}
	return nil, fmt.Errorf("unknown op %s", req.op)
}

func sampleOp(rng *rand.Rand) (kvOp, string) {
	key := []byte(fmt.Sprintf("key%08d", rng.Intn(numKeys)))
	switch v := rng.Float64(); {
	case v < 0.78:
		return kvOp{"GET", key}, "GET"
	case v < 0.91:
		return kvOp{"PUT", key}, "PUT"
	case v < 0.97:
		return kvOp{"DELETE", key}, "DELETE"
	default:
		return kvOp{"SCAN", nil}, "SCAN"
	}
}

func run(name string, quantum time.Duration, policy string) {
	store := kv.New()
	for i := 0; i < numKeys; i++ {
		store.Put([]byte(fmt.Sprintf("key%08d", i)), []byte("initial-value-000"))
	}
	srv := live.New(&kvHandler{store: store}, live.Options{
		Workers:    2,
		Policy:     policy,
		Quantum:    quantum,
		QueueBound: 2,
		PinThreads: false,
	})
	srv.Start()
	defer srv.Stop()

	rng := rand.New(rand.NewSource(7))
	type classLog struct {
		sojourn  obs.QuantileSketch // ns
		preempts int
	}
	logs := map[string]*classLog{}
	type inflight struct {
		ch    <-chan live.Response
		class string
		start time.Time
	}
	var reqs []inflight

	for i := 0; i < 600; i++ {
		op, class := sampleOp(rng)
		reqs = append(reqs, inflight{srv.Submit(op), class, time.Now()})
		time.Sleep(time.Duration(rng.ExpFloat64() * float64(200*time.Microsecond)))
	}
	for _, r := range reqs {
		resp := <-r.ch
		if resp.Err != nil {
			fmt.Println("error:", resp.Err)
			continue
		}
		if logs[r.class] == nil {
			logs[r.class] = &classLog{}
		}
		logs[r.class].sojourn.Observe(int64(resp.Latency))
		logs[r.class].preempts += resp.Preemptions
	}
	st := srv.Stats()
	fmt.Printf("%s (quantum %v): %d requests, %d preemptions, %d run by dispatcher\n",
		name, quantum, st.Completed, st.Preemptions, st.DispatcherRun)
	for _, class := range []string{"GET", "PUT", "DELETE", "SCAN"} {
		if lg := logs[class]; lg != nil {
			s := lg.sojourn.Snapshot()
			fmt.Printf("  %-7s n=%-4d sojourn p50=%8.0fµs p99=%8.0fµs preempts/req=%.1f\n",
				class, s.Count, s.Quantile(0.50)/1e3, s.Quantile(0.99)/1e3, float64(lg.preempts)/float64(s.Count))
		}
	}
	fmt.Println()
}

func main() {
	fmt.Printf("LevelDB-style KV store on the live Concord runtime (%d keys, ZippyDB mix)\n\n", numKeys)
	run("run-to-completion", 0, live.PolicyFCFS)
	run("Concord", 100*time.Microsecond, live.PolicyFCFS)
	run("Concord+SRPT", 100*time.Microsecond, live.PolicySRPT)
	fmt.Println("Preemption keeps GET tail latency near its service time even while")
	fmt.Println("full-database SCANs are in flight; the scans absorb the (small) cost.")
	fmt.Println("The third run orders the central queue by the ops' ServiceHint")
	fmt.Println("(SRPT), so points always bypass queued scans.")
}
