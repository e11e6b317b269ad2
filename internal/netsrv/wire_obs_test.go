package netsrv

import (
	"fmt"
	"math"
	"net"
	"testing"
	"time"

	"concord/internal/kv"
	"concord/internal/live"
	"concord/internal/obs"
	"concord/internal/proto"
)

// TestWireObservabilityPartition is the end-to-end check behind the
// wire-to-wire breakdown: a binary client drives a tracer-enabled server
// over loopback TCP, and every completed request's six components
// (ingress, handoff, queue, service, preempted, egress) must partition
// its frame-read→flushed total within 1%. At depth 1 the client is in
// lockstep and the reader serves every GET itself; at depth 8 they go
// through the runtime's queues and the flusher.
func TestWireObservabilityPartition(t *testing.T) {
	for _, depth := range []int{1, 8} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) { testWirePartition(t, depth) })
	}
}

func testWirePartition(t *testing.T, depth int) {
	const (
		workers = 2
		reqs    = 200
	)
	tracer := obs.NewTracer(workers, 4096)
	store := kv.New()
	for i := 0; i < 100; i++ {
		store.Put([]byte(fmt.Sprintf("key%03d", i)), []byte("value"))
	}
	rt := live.New(&KVHandler{Store: store, ScanBatch: 64}, live.Options{
		Workers: workers,
		Tracer:  tracer,
	})
	rt.Start()
	s := New(rt, Options{Tracer: tracer})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(func() {
		ln.Close()
		rt.Stop()
		s.Drain(200 * time.Millisecond)
	})

	conn := dial(t, ln)
	rr := proto.NewRespReader(conn, 0)
	// Windowed pipelining: keep `depth` requests in flight on one
	// connection the way concord-load -pipeline does.
	inflight := 0
	sent, recvd := uint64(0), 0
	for recvd < reqs {
		for inflight < depth && sent < reqs {
			sent++
			key := []byte(fmt.Sprintf("key%03d", sent%100))
			if _, err := conn.Write(proto.AppendRequest(nil, proto.OpGet, sent, key, nil)); err != nil {
				t.Fatal(err)
			}
			inflight++
		}
		r, err := rr.Next()
		if err != nil {
			t.Fatalf("response %d: %v", recvd, err)
		}
		if r.Status != proto.StValue {
			t.Fatalf("response id %d status = %d", r.ID, r.Status)
		}
		inflight--
		recvd++
	}

	// A response can reach the client before its writer records
	// EvFlushed; the pipeline gauge drops only after that record.
	waitFor(t, "the last EvFlushed", func() bool { return s.NetStats().Pipeline == 0 })
	breakdowns := obs.Analyze(tracer.Snapshot())
	complete := 0
	for _, b := range breakdowns {
		if b.Partial || b.OutcomeString() != "ok" {
			continue
		}
		complete++
		if b.IngressUS <= 0 {
			t.Errorf("req %d ingress = %v µs, want > 0 (frame read must precede submit)", b.Req, b.IngressUS)
		}
		if b.EgressUS <= 0 {
			t.Errorf("req %d egress = %v µs, want > 0 (flush must follow completion)", b.Req, b.EgressUS)
		}
		total := b.TotalUS()
		if total <= 0 {
			t.Errorf("req %d total = %v µs", b.Req, total)
			continue
		}
		// The ISSUE's acceptance bound: the six components account for
		// the full wire-to-wire total within 1%.
		if gap := math.Abs(b.SumUS() - total); gap > 0.01*total {
			t.Errorf("req %d: components sum %.3f != total %.3f (gap %.3f > 1%%)",
				b.Req, b.SumUS(), total, gap)
		}
	}
	if complete != reqs {
		t.Fatalf("complete breakdowns = %d, want %d (ring too small or lifecycle dropped)", complete, reqs)
	}
}
