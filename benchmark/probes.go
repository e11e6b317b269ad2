package main

import (
	"bytes"
	"runtime"
	"time"

	"concord/internal/kv"
	"concord/internal/obs"
	"concord/internal/policy"
	"concord/internal/proto"
	"concord/internal/server"
	"concord/internal/sim"
)

// Layer probes: one tight loop per layer operation, run on every traced
// run after the workload, so the ledger beside any workload's spans is
// complete. They time a layer alone — no waiting, no contention — so a
// probe that moves predicts the direction of an end-to-end metric, never
// its size; README.md lists which metric each should move.

// probeCalls is how many calls a probe times; the probe's figure is the
// mean over them.
const probeCalls = 200_000

// sink keeps the compiler from deleting a probe's loop body.
var sink int

// probe times probeCalls calls of fn and returns ns and heap
// allocations per call.
func probe(fn func(i int)) (ns, allocs float64) {
	for i := 0; i < probeCalls/10; i++ {
		fn(i)
	}
	settle()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < probeCalls; i++ {
		fn(i)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / probeCalls, float64(after.Mallocs-before.Mallocs) / probeCalls
}

// queued is the item the policy probes queue. Its remaining work cycles
// through a range so SRPT's heap really sifts, and its tier through the
// three SLO classes so the cascades really cascade.
type queued struct {
	remaining sim.Cycles
	tier      int
}

func (q *queued) RemainingCycles() sim.Cycles { return q.remaining }
func (q *queued) Tier() int                   { return q.tier }

// policyDepth is the queue depth the policy probes hold: deep, as the
// central queue is near the open loop's SLO crossing.
const policyDepth = 1000

func probePolicy(r *report, metric, name string) {
	q, err := policy.NewQueue[*queued](name)
	if err != nil {
		r.violate("%s: %v", metric, err)
		return
	}
	items := make([]*queued, policyDepth+probeCalls/10+probeCalls)
	rng := newRand(1, 7)
	for i := range items {
		items[i] = &queued{remaining: sim.Cycles(rng.IntN(1 << 20)), tier: i % 3}
	}
	for _, it := range items[:policyDepth] {
		q.Push(it, false)
	}
	next := policyDepth
	ns, _ := probe(func(int) {
		q.Push(items[next], false)
		next++
		it, _ := q.Pop()
		sink += it.tier
	})
	r.timing(metric, ns, probeCalls)
}

// probeProto times the wire codec over kv_wire's frame mix: 80 % GET,
// 20 % PUT with a 64-byte value, decoded from memory.
func probeProto(r *report) {
	var stream, key []byte
	val := make([]byte, kvValSize)
	ops := kvOps(newRand(1, 8), probeCalls/10+probeCalls, 0, kvKeys, kvPutFrac)
	for i, op := range ops {
		key = appendKVKey(key[:0], int(op.key))
		if op.put {
			stream = proto.AppendRequest(stream, proto.OpPut, uint64(i), key, val)
		} else {
			stream = proto.AppendRequest(stream, proto.OpGet, uint64(i), key, nil)
		}
	}
	fr := proto.NewFrameReader(bytes.NewReader(stream), proto.NewPool(4096), 1<<20)
	ns, allocs := probe(func(int) {
		f, err := fr.Next()
		if err != nil {
			r.violate("proto.decode: %v", err)
		}
		sink += len(f.Key)
		f.Release()
	})
	fr.Close()
	r.timing("proto.decode_ns_per_frame", ns, probeCalls)
	r.set("proto.decode_allocs_per_frame", allocs)

	var buf []byte
	ns, _ = probe(func(i int) {
		op := ops[i]
		if op.put {
			buf = proto.AppendRequest(buf[:0], proto.OpPut, uint64(i), key, val)
		} else {
			buf = proto.AppendRequest(buf[:0], proto.OpGet, uint64(i), key, nil)
		}
		sink += len(buf)
	})
	r.timing("proto.encode_req_ns", ns, probeCalls)
	ns, _ = probe(func(i int) {
		if ops[i].put {
			buf = proto.AppendResponse(buf[:0], proto.StOK, uint64(i), nil)
		} else {
			buf = proto.AppendResponse(buf[:0], proto.StValue, uint64(i), val)
		}
		sink += len(buf)
	})
	r.timing("proto.encode_resp_ns", ns, probeCalls)
}

// probeKV times the store at kv_wire's size, single-threaded.
func probeKV(r *report) {
	store := kv.New()
	keys := make([][]byte, kvKeys)
	for i := range keys {
		keys[i] = appendKVKey(nil, i)
		store.Put(keys[i], make([]byte, kvValSize))
	}
	order := newRand(1, 9).Perm(kvKeys)
	ns, _ := probe(func(i int) {
		v, _ := store.Get(keys[order[i%kvKeys]])
		sink += len(v)
	})
	r.timing("kv.get_ns", ns, probeCalls)
	val := make([]byte, kvValSize)
	ns, _ = probe(func(i int) { store.Put(keys[order[i%kvKeys]], val) })
	r.timing("kv.put_ns", ns, probeCalls)
	const scans = 20
	start := time.Now()
	for i := 0; i < scans; i++ {
		store.Scan(nil, nil, func(k, _ []byte) bool {
			sink += len(k)
			return true
		})
	}
	r.timing("kv.scan_us", float64(time.Since(start).Microseconds())/scans, scans)
}

// probeObs times the two completion observers a server can be given.
func probeObs(r *report) {
	var sk obs.QuantileSketch
	ns, _ := probe(func(i int) { sk.Observe(int64(1000 + i)) })
	r.timing("obs.sketch_observe_ns", ns, probeCalls)
	tail := obs.NewTailTracker(nil, nil)
	ns, _ = probe(func(i int) { tail.Observe(time.Duration(1000+i), true) })
	r.timing("obs.tail_observe_ns", ns, probeCalls)
}

// probeServer times the simulator per simulated request, one system at a
// time at the sweep's middle load, and records one simulated quantile so
// that a change in what is simulated shows beside a change in how fast.
func probeServer(r *report, seed uint64) {
	b, err := buildSim(seed)(nil)
	if err != nil {
		r.violate("server probes: %v", err)
		return
	}
	metric := map[string]string{
		"Concord":         "server.concord_ns_per_req",
		"Shinjuku":        "server.shinjuku_ns_per_req",
		"Persephone-FCFS": "server.persephone_ns_per_req",
	}
	for _, cfg := range b.systems {
		settle()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		pt := server.RunAt(cfg, b.wl, simMidLoad, b.params)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		r.timing(metric[cfg.Name], float64(elapsed.Nanoseconds())/simRequests, simRequests)
		if cfg.Name == "Concord" {
			r.set("server.allocs_per_req", float64(after.Mallocs-before.Mallocs)/simRequests)
			r.set("server.p99_slowdown_180k", pt.P99)
		}
	}
}

// probeHost spins alone for dur and reports the time lost in gaps longer
// than hostGap between two clock reads: the hypervisor's and the
// scheduler's stalls, which set the floor under every high percentile an
// open loop measures.
func probeHost(r *report, dur time.Duration) {
	const hostGap = 100 * time.Microsecond
	var lost, worst time.Duration
	start := time.Now()
	last := start
	for {
		now := time.Now()
		if gap := now.Sub(last); gap > hostGap {
			lost += gap
			worst = max(worst, gap)
		}
		last = now
		if now.Sub(start) >= dur {
			break
		}
	}
	r.set("host.stall_pct", 100*lost.Seconds()/dur.Seconds())
	r.set("host.stall_max_us", float64(worst.Microseconds()))
	// The reference loop the untraced phases are scaled by (reference.go):
	// says which state the host was in for the per-layer figures, which
	// are all as measured.
	if ref, err := referenceProcess(); err != nil {
		r.violate("host.ref_us: %v", err)
	} else {
		r.timing("host.ref_us", float64(ref.Nanoseconds())/1e3, refRounds)
	}
}

func runProbes(c config, r *report) {
	probePolicy(r, "policy.fcfs_pushpop_ns", "fcfs")
	probePolicy(r, "policy.srpt_pushpop_ns", "srpt")
	probePolicy(r, "policy.cascade_pushpop_ns", "cascade")
	probePolicy(r, "policy.cascade_srpt_pushpop_ns", "cascade-srpt")
	probeProto(r)
	probeKV(r)
	probeObs(r)
	probeServer(r, c.seed)
}
