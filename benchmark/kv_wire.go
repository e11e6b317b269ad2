package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"concord/internal/kv"
	"concord/internal/live"
	"concord/internal/netsrv"
	"concord/internal/obs"
	"concord/internal/proto"
)

// kv_wire: a closed loop over loopback TCP (the host's loopback
// interface, not a real link) through netsrv's binary frames into
// netsrv.KVHandler on a real kv.Store. proto decode/encode, netsrv's
// reader and flusher and kv do most of the work and the scheduler little.
// Reads sit beside writes so a GET gain that costs PUTs shows. Two
// phases: lockstep (one request in flight per connection) gives per-op
// latency, pipelined (kvDepth in flight) gives throughput with flush
// batching.
const (
	kvKeys    = 15000
	kvValSize = 64
	kvConns   = 2
	kvDepth   = 16
	kvPutFrac = 0.2
	// kvOpsPerConn operations are generated per connection and replayed
	// in a cycle; the cycle is far longer than the pipeline is deep.
	kvOpsPerConn = 1 << 16
	// kvSlotsPerSec sizes each connection's preallocated latency slots.
	kvSlotsPerSec = 400_000
	kvTextGets    = 2000
	kvTraceRows   = 1 << 19
)

// appendKVKey renders key i as the store names it.
func appendKVKey(dst []byte, i int) []byte {
	dst = append(dst, "key"...)
	var digits [8]byte
	for d := 7; d >= 0; d-- {
		digits[d] = byte('0' + i%10)
		i /= 10
	}
	return append(dst, digits[:]...)
}

// fillKVValue writes the value of version ver of key i: printable, so
// the text protocol can carry it, and different for every (key, version),
// so a GET that returns another key's or an older PUT's value is caught.
func fillKVValue(dst []byte, key int, ver uint32) {
	const hex = "0123456789abcdef"
	for i := range dst {
		dst[i] = '.'
	}
	dst[0] = 'k'
	for d := 0; d < 8; d++ {
		dst[1+d] = hex[(key>>(28-4*d))&0xf]
		dst[10+d] = hex[(ver>>(28-4*d))&0xf]
	}
	dst[9] = 'v'
}

// kvConn is the client end of one connection and the state it checks
// responses against. It owns keys [lo, hi): no other connection writes
// them, so a GET must return this connection's last PUT.
type kvConn struct {
	conn   net.Conn
	rr     *proto.RespReader
	ops    []kvOp
	next   int
	lo     int
	ver    []uint32 // version of the last PUT sent, per owned key
	busy   []bool   // key has a request in flight (pipelined phase)
	wbuf   []byte
	key    []byte
	val    []byte
	want   []byte
	slots  []kvSlot // pipelined: what each in-flight id asked
	getLat []int64
	putLat []int64
	wrong  int // responses that were not the expected status, id or value
	// traced lockstep only: when each client-side step of request i ended,
	// from the phase's start.
	steps *kvSteps
}

type kvSlot struct {
	op    kvOp
	ver   uint32
	start time.Time
}

// kvSteps are the client-side layer boundaries of lockstep requests.
type kvSteps struct {
	base                          time.Time
	start, encoded, written, read []time.Duration
}

// kvBench is one set-up instance: store, runtime, listener, connections.
type kvBench struct {
	store *kv.Store
	rt    *live.Server
	ns    *netsrv.Server
	ln    net.Listener
	conns []*kvConn
}

func buildKV(seed uint64, tr *obs.Tracer, nopts netsrv.Options, repSeconds float64) func(old *kvBench) (*kvBench, error) {
	return func(old *kvBench) (*kvBench, error) {
		b := &kvBench{store: kv.New()}
		var key []byte
		for i := 0; i < kvKeys; i++ {
			val := make([]byte, kvValSize) // the store keeps the slice
			fillKVValue(val, i, 0)
			key = appendKVKey(key[:0], i)
			b.store.Put(bytes.Clone(key), val)
		}
		b.rt = newLive(&netsrv.KVHandler{Store: b.store}, tr)
		b.rt.Start()
		nopts.Tracer = tr
		b.ns = netsrv.New(b.rt, nopts)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		b.ln = ln
		go b.ns.Serve(ln) // returns when close() closes the listener
		slots := int(repSeconds * kvSlotsPerSec)
		for c := 0; c < kvConns; c++ {
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				b.close()
				return nil, err
			}
			lo, hi := c*kvKeys/kvConns, (c+1)*kvKeys/kvConns
			kc := &kvConn{
				conn:  conn,
				rr:    proto.NewRespReader(conn, 1<<14),
				ops:   kvOps(newRand(seed, uint64(c)), kvOpsPerConn, lo, hi, kvPutFrac),
				lo:    lo,
				ver:   make([]uint32, hi-lo),
				busy:  make([]bool, hi-lo),
				val:   make([]byte, kvValSize),
				want:  make([]byte, kvValSize),
				slots: make([]kvSlot, kvDepth),
			}
			if old != nil {
				kc.getLat, kc.putLat = old.conns[c].getLat[:0], old.conns[c].putLat[:0]
			} else {
				kc.getLat, kc.putLat = make([]int64, 0, slots), make([]int64, 0, slots)
			}
			b.conns = append(b.conns, kc)
			// One GET on the wire: the connection is accepted and served.
			if err := kc.lockstepOne(kvOp{key: int32(lo)}, 0, -1); err != nil {
				b.close()
				return nil, err
			}
		}
		return b, nil
	}
}

// close tears the instance down: connections, listener, runtime, then the
// connection goroutines.
func (b *kvBench) close() {
	for _, kc := range b.conns {
		kc.conn.Close()
	}
	b.ln.Close()
	b.rt.Stop()
	b.ns.Drain(time.Second)
}

// frame encodes op as request id and returns the version a PUT wrote or a
// GET must read.
func (kc *kvConn) frame(op kvOp, id uint64) uint32 {
	k := int(op.key) - kc.lo
	kc.key = appendKVKey(kc.key[:0], int(op.key))
	if op.put {
		kc.ver[k]++
		fillKVValue(kc.val, int(op.key), kc.ver[k])
		kc.wbuf = proto.AppendRequest(kc.wbuf[:0], proto.OpPut, id, kc.key, kc.val)
	} else {
		kc.wbuf = proto.AppendRequest(kc.wbuf[:0], proto.OpGet, id, kc.key, nil)
	}
	return kc.ver[k]
}

// check verifies one response against what its request asked.
func (kc *kvConn) check(resp proto.Resp, op kvOp, id uint64, ver uint32) {
	ok := resp.ID == id
	if op.put {
		ok = ok && resp.Status == proto.StOK
	} else {
		fillKVValue(kc.want, int(op.key), ver)
		ok = ok && resp.Status == proto.StValue && bytes.Equal(resp.Payload, kc.want)
	}
	if !ok {
		kc.wrong++
	}
}

// lockstepOne sends one request and waits for its response. step is the
// request's row in kc.steps, or -1 when the phase records none.
func (kc *kvConn) lockstepOne(op kvOp, id uint64, step int) error {
	start := time.Now()
	ver := kc.frame(op, id)
	encoded := time.Now()
	if _, err := kc.conn.Write(kc.wbuf); err != nil {
		return err
	}
	written := time.Now()
	resp, err := kc.rr.Next()
	if err != nil {
		return err
	}
	done := time.Now()
	kc.check(resp, op, id, ver)
	lat := int64(done.Sub(start))
	if op.put {
		kc.putLat = append(kc.putLat, lat)
	} else {
		kc.getLat = append(kc.getLat, lat)
	}
	if st := kc.steps; st != nil && step >= 0 && step < len(st.start) {
		st.start[step], st.encoded[step] = start.Sub(st.base), encoded.Sub(st.base)
		st.written[step], st.read[step] = written.Sub(st.base), done.Sub(st.base)
	}
	return nil
}

func (kc *kvConn) room() bool {
	return len(kc.getLat) < cap(kc.getLat) && len(kc.putLat) < cap(kc.putLat)
}

func (kc *kvConn) nextOp() kvOp {
	op := kc.ops[kc.next%len(kc.ops)]
	kc.next++
	return op
}

// lockstep runs one request at a time until the deadline. Request ids
// count up from firstID so a traced server's observer can tell them apart.
func (kc *kvConn) lockstep(deadline time.Time, firstID uint64) (int, error) {
	n := 0
	for time.Now().Before(deadline) && kc.room() {
		if err := kc.lockstepOne(kc.nextOp(), firstID+uint64(n), n); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// pipelined keeps up to kvDepth requests in flight until the deadline,
// then drains. The slot index is the request id. Responses come back in
// completion order, so an operation on a key that already has a request
// in flight waits for that response: the expected value of every GET
// stays exact.
func (kc *kvConn) pipelined(deadline time.Time) (int, error) {
	free := make([]int, 0, kvDepth)
	for id := kvDepth - 1; id >= 0; id-- {
		free = append(free, id)
	}
	inflight, n := 0, 0
	for {
		for len(free) > 0 && time.Now().Before(deadline) && kc.room() {
			op := kc.ops[kc.next%len(kc.ops)]
			k := int(op.key) - kc.lo
			if kc.busy[k] {
				break
			}
			kc.next++
			id := free[len(free)-1]
			free = free[:len(free)-1]
			slot := &kc.slots[id]
			slot.op, slot.start = op, time.Now()
			slot.ver = kc.frame(op, uint64(id))
			if _, err := kc.conn.Write(kc.wbuf); err != nil {
				return n, err
			}
			kc.busy[k] = true
			inflight++
		}
		if inflight == 0 {
			return n, nil
		}
		resp, err := kc.rr.Next()
		if err != nil {
			return n, err
		}
		done := time.Now()
		if resp.ID >= kvDepth {
			return n, fmt.Errorf("response id %d was never sent", resp.ID)
		}
		slot := &kc.slots[resp.ID]
		kc.check(resp, slot.op, resp.ID, slot.ver)
		kc.busy[int(slot.op.key)-kc.lo] = false
		lat := int64(done.Sub(slot.start))
		if slot.op.put {
			kc.putLat = append(kc.putLat, lat)
		} else {
			kc.getLat = append(kc.getLat, lat)
		}
		free = append(free, int(resp.ID))
		inflight--
		n++
	}
}

// kvRep is one repetition of one phase, over all connections.
type kvRep struct {
	n        int
	rps      float64
	allocs   float64 // heap allocations per request, both socket ends
	get, put latencySummary
	all      latencySummary
}

// rep runs every connection in the given phase for dur.
func (b *kvBench) rep(dur time.Duration, pipelined bool) (kvRep, error) {
	for _, kc := range b.conns {
		kc.getLat, kc.putLat = kc.getLat[:0], kc.putLat[:0]
	}
	settle()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	counts := make([]int, len(b.conns))
	errs := make([]error, len(b.conns))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c, kc := range b.conns {
		wg.Add(1)
		go func(c int, kc *kvConn) {
			defer wg.Done()
			if kc.steps != nil && !pipelined {
				kc.steps.base = start
			}
			if pipelined {
				counts[c], errs[c] = kc.pipelined(deadline)
			} else {
				counts[c], errs[c] = kc.lockstep(deadline, uint64(c)<<32)
			}
		}(c, kc)
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	var out kvRep
	var gets, puts []int64
	for c, kc := range b.conns {
		if errs[c] != nil {
			return out, fmt.Errorf("connection %d: %w", c, errs[c])
		}
		out.n += counts[c]
		gets, puts = append(gets, kc.getLat...), append(puts, kc.putLat...)
	}
	out.rps = float64(out.n) / elapsed.Seconds()
	out.allocs = float64(after.Mallocs-before.Mallocs) / float64(out.n)
	out.all = summarize(append(append([]int64(nil), gets...), puts...))
	out.get, out.put = summarize(gets), summarize(puts)
	return out, nil
}

// finish stops the instance and runs the end-of-run checks: every
// response was the expected one, the runtime conserved requests (sent
// binary frames plus textOps text-protocol lines), and the wire layer
// decoded as many frames as the clients sent.
func (b *kvBench) finish(r *report, sent, textOps int64) {
	wrong := 0
	for _, kc := range b.conns {
		wrong += kc.wrong
	}
	b.close()
	if wrong > 0 {
		r.violate("%d responses had the wrong status, id or value", wrong)
	}
	r.failed += int64(wrong)
	sent += kvConns // set-up's GET per connection
	checkConservation(r, b.rt, sent+textOps)
	if ns := b.ns.NetStats(); int64(ns.FramesIn) != sent || int64(ns.FramesOut) != sent {
		r.violate("clients sent %d frames, netsrv decoded %d and answered %d", sent, ns.FramesIn, ns.FramesOut)
	}
}

func runKVWire(c config, r *report) error {
	if c.traced {
		return traceKVWire(c, r)
	}
	dur := phaseLength(c.seconds)
	ph := newPhases(r, buildKV(c.seed, nil, netsrv.Options{}, dur.Seconds()), (*kvBench).close)
	pipelined := false
	measure := func(b *kvBench, v *phaseValues) error {
		if _, err := b.rep(dur/8, pipelined); err != nil { // warm-up
			return err
		}
		rep, err := b.rep(dur, pipelined)
		if err != nil {
			return err
		}
		if pipelined {
			fmt.Printf("pipelined phase: rps=%.0f p50=%.2f p99=%.2f n=%d\n", rep.rps, rep.all.p50, rep.all.p99, rep.n)
			v.putRate("throughput_rps", rep.rps, rep.n)
		} else {
			fmt.Printf("lockstep phase: rps=%.0f p50=%.2f p95=%.2f p99=%.2f n=%d\n", rep.rps, rep.all.p50, rep.all.p95, rep.all.p99, rep.n)
			v.putTime("p50_us", rep.all.p50, rep.n)
			v.putTime("tail_us", rep.all.p95, rep.n)
		}
		r.attempted += int64(rep.n)
		b.finish(r, b.sent(), 0)
		return nil
	}
	if err := ph.rehearse(measure); err != nil {
		return err
	}
	// The two kinds of phase are interleaved, so both see the whole run's
	// host: three lockstep phases to two pipelined ones, because a lockstep
	// phase's tail is the noisiest figure here (±25 % from phase to phase)
	// and a pipelined phase's throughput the steadiest.
	for i := 0; i < phasesPerRun; i++ {
		pipelined = i%5 == 1 || i%5 == 3
		if err := ph.run(measure); err != nil {
			return err
		}
	}
	r.conclude("setup_s")
	r.conclude("throughput_rps")
	r.conclude("p50_us")
	// p95, not p99: a round trip crosses the kernel and four wake-ups, and
	// its p99 (2.5× the median) is set by the host's scheduling; ten-run
	// spreads of 9–25 % were measured on it, a fifth less on the p95.
	r.concludeTail("tail_us", 0.95)
	return nil
}

// sent is how many operations the connections have taken from their
// sequences so far.
func (b *kvBench) sent() int64 {
	var n int64
	for _, kc := range b.conns {
		n += int64(kc.next)
	}
	return n
}

// column is a preallocated list that completion callbacks on different
// goroutines append to without a lock; a full column drops the sample.
type column struct {
	n atomic.Int64
	v []int64
}

func newColumn(rows int) *column { return &column{v: make([]int64, rows)} }

func (c *column) add(x int64) {
	if i := c.n.Add(1) - 1; int(i) < len(c.v) {
		c.v[i] = x
	}
}

func (c *column) values() []int64 { return c.v[:min(int(c.n.Load()), len(c.v))] }

// traceKVWire is the traced run: both phases untraced for the baseline
// and the class split, both again with the tracer on and spans around the
// client's calls into proto and the socket, then the text-protocol round
// trips.
func traceKVWire(c config, r *report) error {
	repDur := time.Duration(c.seconds / 4 * float64(time.Second))
	b, err := buildKV(c.seed, nil, netsrv.Options{}, repDur.Seconds())(nil)
	if err != nil {
		return err
	}
	if _, err := b.rep(repDur/4, true); err != nil {
		return err
	}
	lock, err := b.rep(repDur, false)
	if err != nil {
		return err
	}
	netBefore := b.ns.NetStats()
	pipe, err := b.rep(repDur, true)
	if err != nil {
		return err
	}
	netAfter := b.ns.NetStats()
	text, err := textRoundTrips(b.ln.Addr().String())
	if err != nil {
		return err
	}
	sent := b.sent()
	b.finish(r, sent, int64(text.n))
	r.timing("wire.get_p50_us", lock.get.p50, lock.get.n)
	r.timing("wire.get_p99_us", lock.get.p99, lock.get.n)
	r.timing("wire.put_p50_us", lock.put.p50, lock.put.n)
	r.timing("wire.put_p99_us", lock.put.p99, lock.put.n)
	r.timing("netsrv.text_rtt_us_p50", text.p50, text.n)
	r.set("netsrv.allocs_per_req", pipe.allocs)
	r.set("netsrv.flush_batch_mean",
		float64(netAfter.FramesOut-netBefore.FramesOut)/float64(netAfter.Flushes-netBefore.Flushes))
	r.set("netsrv.frames_in", float64(netAfter.FramesIn))
	r.set("netsrv.bad_frames", float64(netAfter.BadFrames))

	// Traced instance: the runtime's tracer extended across the wire, and
	// netsrv's two observers feeding preallocated columns while the
	// lockstep phase runs. A lockstep request's id is connection<<32 | n,
	// so the server-side row of request n of a connection is known and
	// the two sides pair up.
	var collect atomic.Bool
	var row atomic.Int64
	bds := newBreakdowns(kvTraceRows)
	ingress, served := make([]int64, kvTraceRows), make([]int64, kvTraceRows)
	egress := newColumn(kvTraceRows)
	var rowOf [kvConns][]int32
	for i := range rowOf {
		rowOf[i] = make([]int32, kvTraceRows)
	}
	nopts := netsrv.Options{
		Observe: func(_ byte, resp live.Response) {
			if !collect.Load() || resp.Breakdown == nil {
				return
			}
			i := int(row.Add(1) - 1)
			id := resp.Req.(*netsrv.Request).ID
			conn, n := int(id>>32), int(id&0xffffffff)
			if i >= kvTraceRows || conn >= kvConns || n >= kvTraceRows {
				return
			}
			bds.put(i, &resp)
			ingress[i], served[i] = int64(resp.Breakdown.Ingress), int64(resp.Latency)
			rowOf[conn][n] = int32(i)
		},
		ObserveEgress: func(_ byte, d time.Duration) {
			if collect.Load() {
				egress.add(int64(d))
			}
		},
	}
	tb, err := buildKV(c.seed, newTracer(), nopts, repDur.Seconds())(nil)
	if err != nil {
		return err
	}
	if _, err := tb.rep(repDur/4, true); err != nil {
		return err
	}
	tpipe, err := tb.rep(repDur, true)
	if err != nil {
		return err
	}
	for _, kc := range tb.conns {
		mk := func() []time.Duration { return make([]time.Duration, kvTraceRows) }
		kc.steps = &kvSteps{start: mk(), encoded: mk(), written: mk(), read: mk()}
	}
	collect.Store(true)
	tlock, err := tb.rep(repDur, false)
	if err != nil {
		return err
	}
	collect.Store(false)
	tsent := tb.sent()
	tb.finish(r, tsent, 0) // stops the server: every observer call has returned
	tstats := tb.rt.Stats()
	r.attempted = sent + tsent + int64(text.n)
	rows := min(int(row.Load()), kvTraceRows)
	if rows != min(tlock.n, kvTraceRows) {
		r.violate("traced lockstep phase: %d requests, %d observed by netsrv", tlock.n, rows)
	}

	// Spans and the unexplained remainder. Client side, per request:
	// proto.AppendRequest, conn.Write, then RespReader.Next until the
	// response is decoded. Server side, inside that wait: ingress, the
	// runtime's latency, egress. What is left of the round trip is the
	// kernel's loopback path and both ends' wake-ups. Egress is observed
	// without an id, so it enters as its median.
	egressP50 := summarize(egress.values()).p50
	var gaps []int64
	for conn, kc := range tb.conns {
		st := kc.steps
		for n := 0; n < kvTraceRows && st.read[n] != 0; n++ {
			i := int(rowOf[conn][n])
			in, lat := time.Duration(ingress[i]), time.Duration(served[i])
			gaps = append(gaps, int64(st.read[n]-st.start[n]-in-lat))
			if conn != 0 || n >= spanRequests {
				continue
			}
			c.spans.add(n, "request", "", st.start[n], st.read[n])
			c.spans.add(n, "proto.AppendRequest", "request", st.start[n], st.encoded[n])
			c.spans.add(n, "conn.Write", "request", st.encoded[n], st.written[n])
			c.spans.add(n, "RespReader.Next", "request", st.written[n], st.read[n])
			// Client and server share a clock (one process) but the
			// server's spans are known by duration only: they are placed
			// so that egress ends when the client's read returns.
			at := st.read[n] - time.Duration(egressP50*1e3) - lat - in
			c.spans.add(n, "netsrv.ingress", "RespReader.Next", at, at+in)
			c.spans.chain(n, "live.serve", "RespReader.Next", at+in, lat, bds, i)
		}
	}
	gap := summarize(gaps)
	bds.trim(rows)
	bds.report(r)
	r.timing("netsrv.ingress_us_p50", summarize(ingress[:rows]).p50, rows)
	r.timing("netsrv.egress_us_p50", egressP50, len(egress.values()))
	r.timing("netsrv.client_gap_us_p50", gap.p50-egressP50, gap.n)
	reportStats(r, tstats, 0)
	r.set("obs.tracer_overhead_pct", 100*(pipe.rps-tpipe.rps)/pipe.rps)
	return nil
}

// textRoundTrips times kvTextGets lockstep GETs on one text-protocol
// connection: the same server and store, the other wire format.
func textRoundTrips(addr string) (latencySummary, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return latencySummary{}, err
	}
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 1<<12)
	lat := make([]int64, 0, kvTextGets)
	want := make([]byte, kvValSize)
	var line []byte
	for i := 0; i < kvTextGets; i++ {
		// Keys of connection 0's range, which it may have overwritten: the
		// value's key field is checked, the version is not.
		k := i % (kvKeys / kvConns)
		line = appendKVKey(append(line[:0], "GET "...), k)
		line = append(line, '\n')
		start := time.Now()
		if _, err := conn.Write(line); err != nil {
			return latencySummary{}, err
		}
		got, err := br.ReadSlice('\n')
		if err != nil {
			return latencySummary{}, err
		}
		lat = append(lat, int64(time.Since(start)))
		fillKVValue(want, k, 0)
		if len(got) != len("VALUE ")+kvValSize+1 || !bytes.Equal(got[6:6+9], want[:9]) {
			return latencySummary{}, fmt.Errorf("text GET of key %d replied %q", k, got)
		}
	}
	return summarize(lat), nil
}
