package netsrv

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"concord/internal/live"
	"concord/internal/obs"
	"concord/internal/proto"
)

// onFreshServers runs the test body three times, each against a fresh
// four-worker server. The rows keep the names of the dispatcher shard
// counts they once ran at (1, 2 and 4); the server has one dispatcher
// now, so they repeat the body.
func onFreshServers(t *testing.T, opts Options, body func(t *testing.T, s *Server, ln net.Listener)) {
	for _, name := range []string{"shards1", "shards2", "shards4"} {
		t.Run(name, func(t *testing.T) {
			s, ln := newTestServerLive(t, opts, live.Options{Workers: 4})
			body(t, s, ln)
		})
	}
}

// waitFor polls cond until it holds; what names the wait for the
// failure message.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFloodHoldsOnlyItsWindow: a connection that writes forty windows
// of work without reading a byte never has more than its window between
// "read off the wire" and "response written", and a second connection
// is served meanwhile. While the flood's spins hold every P, the second
// connection's bytes wait for the runtime's network poll, which then
// runs about every 10 ms: the flood is sized to outlast that wait about
// four times over (at most a quarter of it was out when the GET was
// answered, on two cores, with the dispatchers running requests too).
func TestFloodHoldsOnlyItsWindow(t *testing.T) {
	onFreshServers(t, Options{}, func(t *testing.T, s *Server, ln net.Listener) {
		const flood = 40 * binaryWindow
		var peak atomic.Int64
		stop, sampled := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(sampled)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if p := s.NetStats().Pipeline; p > peak.Load() {
					peak.Store(p)
				}
				runtime.Gosched()
			}
		}()

		conn := dial(t, ln)
		var wire []byte
		for i := uint64(0); i < flood; i++ {
			wire = proto.AppendSpinRequest(wire, i, 300)
		}
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the flood to fill its window", func() bool { return s.NetStats().FramesIn >= binaryWindow })

		other := dial(t, ln)
		asked := time.Now()
		if _, err := io.WriteString(other, "GET key000\n"); err != nil {
			t.Fatal(err)
		}
		if line, err := bufio.NewReader(other).ReadString('\n'); err != nil || line != "VALUE value\n" {
			t.Fatalf("second connection during the flood: %q, %v", line, err)
		}
		waited := time.Since(asked)
		st := s.NetStats()
		t.Logf("second connection answered in %v, with %d of %d flood frames out", waited, st.FramesOut, flood)
		if st.FramesOut == flood {
			t.Fatalf("the second connection was answered only after all %d frames of the flood: it queued behind more than a window", flood)
		}

		got := readResponses(t, proto.NewRespReader(conn, 0), flood)
		for i := uint64(0); i < flood; i++ {
			if got[i].Status != proto.StOK {
				t.Fatalf("flood id %d: %+v", i, got[i])
			}
		}
		close(stop)
		<-sampled
		// +1: the second connection's request is in the same gauge.
		if p := peak.Load(); p > binaryWindow+1 {
			t.Fatalf("pipeline peaked at %d with one flooding connection, window is %d", p, binaryWindow)
		}
		t.Logf("pipeline peak %d (window %d)", peak.Load(), binaryWindow)
		waitFor(t, "pipeline to return to 0", func() bool { return s.NetStats().Pipeline == 0 })
	})
}

// TestNeverReadingClientIsClosed: a client that keeps asking for a large
// value and never reads stalls the flusher's write; after WriteTimeout
// the connection is closed, counted once, and every goroutine it had is
// gone. Both protocols: the text flusher holds one response, the binary
// one up to a window of them.
func TestNeverReadingClientIsClosed(t *testing.T) {
	big := bytes.Repeat([]byte("v"), 64<<10)
	for _, tc := range []struct {
		name string
		get  []byte
	}{
		{"text", []byte("GET big\n")},
		{"binary", proto.AppendRequest(nil, proto.OpGet, 1, []byte("big"), nil)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			onFreshServers(t, Options{WriteTimeout: 50 * time.Millisecond}, func(t *testing.T, s *Server, ln net.Listener) {
				if resp := s.rt.Do(&Request{Op: proto.OpPut, Key: []byte("big"), Val: big}); resp.Err != nil {
					t.Fatal(resp.Err)
				}
				baseline := runtime.NumGoroutine()
				conn := dial(t, ln)
				// Write until the server hangs up on us: first the socket
				// buffers between the two ends fill with unread responses,
				// then the flusher's write times out.
				written := make(chan struct{})
				go func() {
					defer close(written)
					for {
						if _, err := conn.Write(tc.get); err != nil {
							return
						}
					}
				}()
				waitFor(t, "the stalled write to close the connection", func() bool {
					st := s.NetStats()
					return st.WriteClosed > 0 && st.Conns == 0
				})
				conn.Close()
				<-written
				waitFor(t, "the connection's goroutines to exit", func() bool { return runtime.NumGoroutine() <= baseline })
				if st := s.NetStats(); st.WriteClosed != 1 || st.Pipeline != 0 {
					t.Fatalf("after the close: WriteClosed = %d, Pipeline = %d, want 1 and 0", st.WriteClosed, st.Pipeline)
				}
			})
		})
	}
}

// TestHalfOpenMidPipeline: the client closes its write side with several
// windows of requests still unanswered. Every frame it sent is answered
// exactly once, then the server closes.
func TestHalfOpenMidPipeline(t *testing.T) {
	onFreshServers(t, Options{}, func(t *testing.T, s *Server, ln net.Listener) {
		const frames = 3*binaryWindow + 7
		conn := dial(t, ln)
		var wire []byte
		for i := uint64(0); i < frames; i++ {
			if i%8 == 0 {
				wire = proto.AppendSpinRequest(wire, i, 200)
			} else {
				wire = proto.AppendRequest(wire, proto.OpGet, i, []byte("key007"), nil)
			}
		}
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
		conn.(*net.TCPConn).CloseWrite()
		rr := proto.NewRespReader(conn, 0)
		got := readResponses(t, rr, frames)
		for i := uint64(0); i < frames; i++ {
			if st := got[i].Status; st != proto.StOK && st != proto.StValue {
				t.Fatalf("id %d: %+v", i, got[i])
			}
		}
		if r, err := rr.Next(); err != io.EOF {
			t.Fatalf("after the last owed response: resp %+v err %v, want EOF", r, err)
		}
		waitFor(t, "the connection to close", func() bool { return s.NetStats().Conns == 0 })
		if st := s.NetStats(); st.Pipeline != 0 || st.FramesIn != frames || st.FramesOut != frames {
			t.Fatalf("pipeline %d, frames in/out %d/%d, want 0 and %d each", st.Pipeline, st.FramesIn, st.FramesOut, frames)
		}
	})
}

// TestResetMidBatch: the client resets the connection with responses
// still owed. Each accepted frame ends in a response or in the closed
// connection — the runtime completes everything it was given, the
// window comes back whole, nothing is left open.
func TestResetMidBatch(t *testing.T) {
	onFreshServers(t, Options{}, func(t *testing.T, s *Server, ln net.Listener) {
		const frames = 3 * binaryWindow
		conn := dial(t, ln)
		var wire []byte
		for i := uint64(0); i < frames; i++ {
			wire = proto.AppendSpinRequest(wire, i, 200)
		}
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
		readResponses(t, proto.NewRespReader(conn, 0), 5)
		conn.(*net.TCPConn).SetLinger(0) // Close sends RST, not FIN
		conn.Close()
		waitFor(t, "the reset connection to close", func() bool { return s.NetStats().Conns == 0 })
		st, rs := s.NetStats(), s.rt.Stats()
		if st.Pipeline != 0 {
			t.Fatalf("pipeline = %d after the connection closed, want 0", st.Pipeline)
		}
		if st.FramesIn > frames || st.FramesOut > st.FramesIn || st.WriteClosed > 1 {
			t.Fatalf("frames in/out %d/%d of %d sent, WriteClosed %d", st.FramesIn, st.FramesOut, frames, st.WriteClosed)
		}
		if rs.Submitted != st.FramesIn || rs.Completed != rs.Submitted {
			t.Fatalf("runtime submitted %d completed %d, netsrv decoded %d", rs.Submitted, rs.Completed, st.FramesIn)
		}
	})
}

// TestLockstepSpinDoesNotBlockGet: a SPIN on a binary connection must
// not be run on the reader, or the GETs a client pipelines behind it
// would not even be read until it ended. Once the SPIN holds a worker,
// the GETs written behind it — one in lockstep, fifteen in one write at
// depth 16 — are all answered before it.
func TestLockstepSpinDoesNotBlockGet(t *testing.T) {
	for _, row := range []struct {
		name string
		gets int
	}{{"lockstep", 1}, {"depth16", 15}} {
		t.Run(row.name, func(t *testing.T) {
			s, ln := newTestServer(t, Options{})
			conn := dial(t, ln)
			if _, err := conn.Write(proto.AppendSpinRequest(nil, 1, 300_000)); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "the SPIN to hold a worker", func() bool {
				d := s.rt.Depths()
				return d.Submit == 0 && d.Central == 0 && d.Workers[0]+d.Workers[1] > 0
			})
			var wire []byte
			for i := 0; i < row.gets; i++ {
				wire = proto.AppendRequest(wire, proto.OpGet, uint64(2+i), []byte("key000"), nil)
			}
			if _, err := conn.Write(wire); err != nil {
				t.Fatal(err)
			}
			rr := proto.NewRespReader(conn, 0)
			for i := 0; i <= row.gets; i++ {
				r, err := rr.Next()
				if err != nil {
					t.Fatal(err)
				}
				if (r.ID == 1) != (i == row.gets) {
					t.Fatalf("response %d is id %d (%s): the SPIN must come last, after all %d GETs",
						i, r.ID, proto.StatusString(r.Status), row.gets)
				}
			}
		})
	}
}

// TestReaderAnswersBeforeTornFrame: a client sends whole GETs and half
// of the next frame, then waits for answers before it sends the rest.
// The reader must write what it owes before it blocks reading the rest
// of the frame, or the two ends wait on each other.
func TestReaderAnswersBeforeTornFrame(t *testing.T) {
	_, ln := newTestServer(t, Options{})
	conn := dial(t, ln)
	const whole = 8
	var wire []byte
	for i := uint64(1); i <= whole; i++ {
		wire = proto.AppendRequest(wire, proto.OpGet, i, []byte("key001"), nil)
	}
	torn := proto.AppendRequest(nil, proto.OpGet, whole+1, []byte("key002"), nil)
	if _, err := conn.Write(append(wire, torn[:len(torn)/2]...)); err != nil {
		t.Fatal(err)
	}
	// A hang guard, not a latency bound: the answers are owed now.
	conn.SetReadDeadline(time.Now().Add(20 * time.Second))
	rr := proto.NewRespReader(conn, 0)
	got := readResponses(t, rr, whole)
	for i := uint64(1); i <= whole; i++ {
		if got[i].Status != proto.StValue {
			t.Fatalf("id %d: %+v", i, got[i])
		}
	}
	if _, err := conn.Write(torn[len(torn)/2:]); err != nil {
		t.Fatal(err)
	}
	if r, err := rr.Next(); err != nil || r.ID != whole+1 || r.Status != proto.StValue {
		t.Fatalf("the completed torn frame: %+v, %v", r, err)
	}
}

// TestReaderRunsPipelinedPointOps: sixteen GETs pipelined in one write to
// an idle server are all run by the connection's reader — every dispatch
// is recorded on the client's ring, none on a dispatcher's.
func TestReaderRunsPipelinedPointOps(t *testing.T) {
	const gets = 16
	tracer := obs.NewTracer(2, 1<<12)
	_, ln := newTestServerLive(t, Options{Tracer: tracer}, live.Options{Workers: 2, Tracer: tracer})
	conn := dial(t, ln)
	var wire []byte
	for i := uint64(1); i <= gets; i++ {
		wire = proto.AppendRequest(wire, proto.OpGet, i, []byte("key003"), nil)
	}
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	got := readResponses(t, proto.NewRespReader(conn, 0), gets)
	for i := uint64(1); i <= gets; i++ {
		if got[i].Status != proto.StValue {
			t.Fatalf("id %d: %+v", i, got[i])
		}
	}
	byRing := map[int]int{}
	for _, e := range tracer.Snapshot() {
		if e.Kind == obs.EvDispatch {
			byRing[e.Ring]++
		}
	}
	if byRing[obs.WriterClient] != gets || len(byRing) != 1 {
		t.Fatalf("dispatches by ring %v, want all %d on the client's (%d)", byRing, gets, obs.WriterClient)
	}
}

// TestIdleConnectionClosed: a client that leaves the reader waiting for
// its next request for the idle timeout (idleWrites × WriteTimeout) is
// disconnected — one that never sends a byte, and one that sent a
// request, was answered and went quiet, in either protocol. The close is
// counted once, as IdleClosed and not WriteClosed, and the connection's
// goroutines exit.
func TestIdleConnectionClosed(t *testing.T) {
	for _, tc := range []struct {
		name string
		req  []byte
	}{
		{"silent", nil},
		{"text", []byte("GET key000\n")},
		{"binary", proto.AppendRequest(nil, proto.OpGet, 1, []byte("key000"), nil)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ln := newTestServerLive(t, Options{WriteTimeout: 20 * time.Millisecond}, live.Options{Workers: 2})
			baseline := runtime.NumGoroutine()
			conn := dial(t, ln)
			if _, err := conn.Write(tc.req); err != nil {
				t.Fatal(err)
			}
			// The server answers what it was sent and then hangs up: the
			// client reads to EOF. The client's own deadline only turns a
			// connection that is never closed into a failure.
			conn.SetReadDeadline(time.Now().Add(20 * time.Second))
			got, err := io.ReadAll(conn)
			if err != nil {
				t.Fatalf("the idle connection was not closed: %v", err)
			}
			if (len(got) > 0) != (tc.req != nil) {
				t.Fatalf("read %q before the close, want the response to what was sent (%q)", got, tc.req)
			}
			waitFor(t, "the connection to close", func() bool { return s.NetStats().Conns == 0 })
			waitFor(t, "the connection's goroutines to exit", func() bool { return runtime.NumGoroutine() <= baseline })
			if st := s.NetStats(); st.IdleClosed != 1 || st.WriteClosed != 0 || st.Pipeline != 0 {
				t.Fatalf("IdleClosed = %d, WriteClosed = %d, Pipeline = %d, want 1, 0 and 0", st.IdleClosed, st.WriteClosed, st.Pipeline)
			}
		})
	}
}

// TestDrainEndsIdleArmedConnection: Drain's grace, not the idle timeout,
// ends a connection whose reader waits under an idle deadline — one armed
// before the first byte, and one re-armed after a served request — and
// the close is Drain's, not counted as idle. The idle timeout is two
// minutes, so only Drain can end the connection while the test runs.
func TestDrainEndsIdleArmedConnection(t *testing.T) {
	for _, tc := range []struct {
		name string
		req  []byte
	}{
		{"silent", nil},
		{"after-a-request", []byte("GET key000\n")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ln := newTestServerLive(t, Options{WriteTimeout: 10 * time.Second}, live.Options{Workers: 2})
			conn := dial(t, ln)
			if tc.req != nil {
				if _, err := conn.Write(tc.req); err != nil {
					t.Fatal(err)
				}
				if line, err := bufio.NewReader(conn).ReadString('\n'); err != nil || line != "VALUE value\n" {
					t.Fatalf("response %q, %v", line, err)
				}
			}
			waitFor(t, "the connection to be served", func() bool { return s.NetStats().Conns == 1 })
			drained := make(chan struct{})
			go func() {
				s.Drain(10 * time.Millisecond)
				close(drained)
			}()
			select {
			case <-drained:
			case <-time.After(30 * time.Second):
				t.Fatal("Drain did not end the idle-armed connection at its grace")
			}
			if st := s.NetStats(); st.Conns != 0 || st.IdleClosed != 0 {
				t.Fatalf("after Drain: Conns = %d, IdleClosed = %d, want 0 and 0", st.Conns, st.IdleClosed)
			}
		})
	}
}

// deadlineConn records the read deadlines set on its connection.
type deadlineConn struct {
	net.Conn
	mu  sync.Mutex
	set []time.Time
}

func (c *deadlineConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.set = append(c.set, t)
	c.mu.Unlock()
	return c.Conn.SetReadDeadline(t)
}

// deadlines returns how many read deadlines were set, and the last.
func (c *deadlineConn) deadlines() (int, time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.set) == 0 {
		return 0, time.Time{}
	}
	return len(c.set), c.set[len(c.set)-1]
}

// TestIdleDeadlineArmedPerBlockingRead: the reader re-arms the idle
// deadline before a read that can block, never per request already
// buffered. Over a pipe, where a read takes what one write sent, two
// writes of ten requests each cost four arms in either protocol: before
// the first byte, before the rest of the first write, before the second
// write, and before the read that finds the end of the stream.
func TestIdleDeadlineArmedPerBlockingRead(t *testing.T) {
	for _, tc := range []struct {
		name string
		req  func(id uint64) []byte
		read func(t *testing.T, conn net.Conn, n int)
	}{
		{"text", func(uint64) []byte { return []byte("GET key000\n") }, func(t *testing.T, conn net.Conn, n int) {
			br := bufio.NewReader(conn)
			for i := 0; i < n; i++ {
				if line, err := br.ReadString('\n'); err != nil || line != "VALUE value\n" {
					t.Fatalf("response %d: %q, %v", i, line, err)
				}
			}
		}},
		{"binary", func(id uint64) []byte { return proto.AppendRequest(nil, proto.OpGet, id, []byte("key000"), nil) },
			func(t *testing.T, conn net.Conn, n int) { readResponses(t, proto.NewRespReader(conn, 0), n) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := newTestServerLive(t, Options{WriteTimeout: time.Minute}, live.Options{Workers: 2})
			client, server := net.Pipe()
			defer client.Close()
			dc := &deadlineConn{Conn: server}
			served := make(chan struct{})
			go func() {
				s.ServeConn(dc)
				close(served)
			}()
			const perWrite = 10
			for w := uint64(0); w < 2; w++ {
				var wire []byte
				for i := uint64(0); i < perWrite; i++ {
					wire = append(wire, tc.req(w*perWrite+i+1)...)
				}
				if _, err := client.Write(wire); err != nil {
					t.Fatal(err)
				}
				tc.read(t, client, perWrite)
			}
			client.Close()
			select {
			case <-served:
			case <-time.After(20 * time.Second):
				t.Fatal("the connection was never closed")
			}
			if n, _ := dc.deadlines(); n != 4 {
				t.Fatalf("%d read deadlines set for two writes of %d requests, want 4", n, perWrite)
			}
		})
	}
}

// TestDrainDeadlineNotExtendedByIdleRearm: a reader that re-arms its idle
// deadline after Drain has set the connection's puts Drain's back: a
// request served during the grace re-arms, and the deadline left in
// place is Drain's. The idle timeout, two hours, is past the grace, one
// hour, so an extension would be the last deadline set.
func TestDrainDeadlineNotExtendedByIdleRearm(t *testing.T) {
	s, _ := newTestServerLive(t, Options{WriteTimeout: 10 * time.Minute}, live.Options{Workers: 2})
	client, server := net.Pipe()
	defer client.Close()
	dc := &deadlineConn{Conn: server}
	served := make(chan struct{})
	go func() {
		s.ServeConn(dc)
		close(served)
	}()
	br := bufio.NewReader(client)
	get := func() {
		if _, err := io.WriteString(client, "GET key000\n"); err != nil {
			t.Fatal(err)
		}
		if line, err := br.ReadString('\n'); err != nil || line != "VALUE value\n" {
			t.Fatalf("response %q, %v", line, err)
		}
	}
	get()
	drained := make(chan struct{})
	go func() {
		s.Drain(time.Hour)
		close(drained)
	}()
	isDrains := func(d time.Time) bool { by := s.drainBy.Load(); return by != 0 && d.UnixNano() == by }
	waitFor(t, "Drain to set the connection's deadline", func() bool { _, last := dc.deadlines(); return isDrains(last) })
	before, _ := dc.deadlines()
	get()
	waitFor(t, "the reader to re-arm and leave Drain's deadline in place", func() bool {
		n, last := dc.deadlines()
		return n > before && isDrains(last)
	})
	client.Close()
	<-drained
	<-served
}
