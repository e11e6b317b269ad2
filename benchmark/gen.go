package main

import (
	"math/rand/v2"
	"time"
)

// Every input is generated here, before any clock starts, from the run's
// seed and a stream number that names the input (which rung, which
// connection), so the same seed gives the same requests in the same
// order and the program under test receives only the inputs.
func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// openReq is one request of the open loop: how long its handler spins and
// which result slot it owns. It carries its exact service time as a hint
// (live.Hinted), so a policy that reads hints gets true ones.
type openReq struct {
	idx  int
	long bool
	spin time.Duration
}

func (q *openReq) ServiceHint() time.Duration { return q.spin }

// schedule is one open-loop rung's arrivals: due[i] is when request i is
// due, as an offset from the rung's start.
type schedule struct {
	rate  float64
	dur   time.Duration
	due   []time.Duration
	reqs  []openReq
	longs int
}

// fill draws arrivals at rate req/s for dur with exponential gaps, each
// request long with probability longFrac, into the schedule's own slices.
func (s *schedule) fill(rng *rand.Rand, rate float64, dur time.Duration, longFrac float64, short, long time.Duration) {
	s.rate, s.dur, s.longs = rate, dur, 0
	s.due, s.reqs = s.due[:0], s.reqs[:0]
	at := 0.0 // seconds
	for {
		at += rng.ExpFloat64() / rate
		due := time.Duration(at * float64(time.Second))
		if due >= dur {
			return
		}
		q := openReq{idx: len(s.reqs), spin: short}
		if rng.Float64() < longFrac {
			q.long, q.spin = true, long
			s.longs++
		}
		s.due = append(s.due, due)
		s.reqs = append(s.reqs, q)
	}
}

// kvOp is one operation of a kv_wire connection: a GET or PUT on one of
// the keys the connection owns.
type kvOp struct {
	put bool
	key int32 // index into the store's key space
}

// kvOps draws n operations, putFrac of them PUTs, uniformly over the keys
// [lo, hi) the connection owns.
func kvOps(rng *rand.Rand, n int, lo, hi int, putFrac float64) []kvOp {
	ops := make([]kvOp, n)
	for i := range ops {
		ops[i] = kvOp{
			put: rng.Float64() < putFrac,
			key: int32(lo + rng.IntN(hi-lo)),
		}
	}
	return ops
}
