package netsrv

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"concord/internal/kv"
	"concord/internal/live"
	"concord/internal/proto"
)

func newTestServer(t *testing.T, opts Options) (*Server, net.Listener) {
	t.Helper()
	return newTestServerLive(t, opts, live.Options{Workers: 2})
}

func newTestServerLive(t *testing.T, opts Options, lopts live.Options) (*Server, net.Listener) {
	t.Helper()
	store := kv.New()
	for i := 0; i < 100; i++ {
		store.Put([]byte(fmt.Sprintf("key%03d", i)), []byte("value"))
	}
	rt := live.New(&KVHandler{Store: store, ScanBatch: 64}, lopts)
	rt.Start()
	s := New(rt, opts)
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
	return s, ln
}

func dial(t *testing.T, ln net.Listener) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func TestTextRoundTrip(t *testing.T) {
	_, ln := newTestServer(t, Options{})
	conn := dial(t, ln)
	send := "PUT k hello world\nGET k\nget k\nDEL k\nGET k\nSCAN\nSPIN 10\nSPIN banana\nBOGUS x\nGET\n"
	if _, err := io.WriteString(conn, send); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"OK", "VALUE hello world", "VALUE hello world", "OK", "NOTFOUND",
		"COUNT 100", "OK", "ERR bad SPIN duration", "ERR unknown op", "ERR GET needs a key",
	}
	br := bufio.NewReader(conn)
	for i, w := range want {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if got := strings.TrimSuffix(line, "\n"); got != w {
			t.Fatalf("response %d = %q, want %q", i, got, w)
		}
	}
}

func TestTextTooLarge(t *testing.T) {
	s, ln := newTestServer(t, Options{MaxReq: 1024})
	conn := dial(t, ln)
	long := "PUT k " + strings.Repeat("x", 200_000)
	if _, err := io.WriteString(conn, long+"\nGET key000\n"); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	for i, w := range []string{"TOOLARGE", "VALUE value"} {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if got := strings.TrimSuffix(line, "\n"); got != w {
			t.Fatalf("response %d = %q, want %q", i, got, w)
		}
	}
	if n := s.NetStats().TooLarge; n != 1 {
		t.Fatalf("TooLarge = %d, want 1", n)
	}
}

func TestTextControl(t *testing.T) {
	_, ln := newTestServer(t, Options{
		Control: func(out io.Writer, line string, obsOn *bool) bool {
			if line == "STATS" {
				fmt.Fprintln(out, "STATS ok=1")
				return true
			}
			return false
		},
	})
	conn := dial(t, ln)
	if _, err := io.WriteString(conn, "STATS\nSTATSX\n"); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	line, _ := br.ReadString('\n')
	if line != "STATS ok=1\n" {
		t.Fatalf("control response = %q", line)
	}
	line, _ = br.ReadString('\n')
	if line != "ERR unknown op\n" {
		t.Fatalf("unhandled control = %q", line)
	}
}

// readResponses reads n binary responses, failing on duplicate ids.
func readResponses(t *testing.T, rr *proto.RespReader, n int) map[uint64]proto.Resp {
	t.Helper()
	got := make(map[uint64]proto.Resp, n)
	order := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		r, err := rr.Next()
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if _, dup := got[r.ID]; dup {
			t.Fatalf("duplicate response for id %d", r.ID)
		}
		r.Payload = append([]byte(nil), r.Payload...)
		got[r.ID] = r
		order = append(order, r.ID)
	}
	_ = order
	return got
}

// TestBinaryPipelined: many requests in flight on one connection; a
// slow SPIN submitted first must not block responses for the fast GETs
// behind it (out-of-order completion matched by id).
func TestBinaryPipelined(t *testing.T) {
	_, ln := newTestServer(t, Options{})
	conn := dial(t, ln)
	var wire []byte
	wire = proto.AppendSpinRequest(wire, 1, 50_000) // 50ms on one worker
	const gets = 32
	for i := uint64(0); i < gets; i++ {
		wire = proto.AppendRequest(wire, proto.OpGet, 100+i, []byte("key001"), nil)
	}
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	rr := proto.NewRespReader(conn, 0)
	first, err := rr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if first.ID == 1 {
		t.Fatal("slow SPIN answered before any of the pipelined GETs behind it")
	}
	got := readResponses(t, rr, gets)
	got[first.ID] = first
	for i := uint64(0); i < gets; i++ {
		r, ok := got[100+i]
		if !ok || r.Status != proto.StValue || string(r.Payload) != "value" {
			t.Fatalf("GET id %d: %+v ok=%v", 100+i, r, ok)
		}
	}
	if r, ok := got[1]; !ok || r.Status != proto.StOK {
		t.Fatalf("SPIN response: %+v ok=%v", r, ok)
	}
}

// TestBinaryOps drives each op lockstep: pipelined requests complete
// out of order, so dependent ops (PUT before its GET) must wait for
// their predecessor's response like any pipelined client would.
func TestBinaryOps(t *testing.T) {
	_, ln := newTestServer(t, Options{})
	conn := dial(t, ln)
	rr := proto.NewRespReader(conn, 0)
	do := func(op byte, id uint64, key, val []byte) proto.Resp {
		t.Helper()
		if _, err := conn.Write(proto.AppendRequest(nil, op, id, key, val)); err != nil {
			t.Fatal(err)
		}
		r, err := rr.Next()
		if err != nil || r.ID != id {
			t.Fatalf("op %s id %d: %+v, %v", proto.OpString(op), id, r, err)
		}
		return r
	}
	if r := do(proto.OpPut, 1, []byte("bk"), []byte("bv")); r.Status != proto.StOK {
		t.Fatalf("PUT: %+v", r)
	}
	if r := do(proto.OpGet, 2, []byte("bk"), nil); r.Status != proto.StValue || string(r.Payload) != "bv" {
		t.Fatalf("GET: %+v", r)
	}
	if r := do(proto.OpDel, 3, []byte("bk"), nil); r.Status != proto.StOK {
		t.Fatalf("DEL: %+v", r)
	}
	if r := do(proto.OpGet, 4, []byte("bk"), nil); r.Status != proto.StNotFound {
		t.Fatalf("GET after DEL: %+v", r)
	}
	r := do(proto.OpScan, 5, nil, nil)
	if n, ok := proto.DecodeCount(r.Payload); r.Status != proto.StCount || !ok || n != 100 {
		t.Fatalf("SCAN: %+v", r)
	}
}

// TestBinaryTornWrites drips one frame a byte at a time: the decoder
// must reassemble it across reads.
func TestBinaryTornWrites(t *testing.T) {
	_, ln := newTestServer(t, Options{})
	conn := dial(t, ln)
	wire := proto.AppendRequest(nil, proto.OpGet, 7, []byte("key002"), nil)
	for _, b := range wire {
		if _, err := conn.Write([]byte{b}); err != nil {
			t.Fatal(err)
		}
	}
	r, err := proto.NewRespReader(conn, 0).Next()
	if err != nil || r.ID != 7 || r.Status != proto.StValue {
		t.Fatalf("torn frame response: %+v, %v", r, err)
	}
}

// TestBinaryBadOpcode: a malformed opcode answers StBadRequest for that
// id; the frame was length-delimited, so the stream stays usable.
func TestBinaryBadOpcode(t *testing.T) {
	s, ln := newTestServer(t, Options{})
	conn := dial(t, ln)
	var wire []byte
	wire = proto.AppendRequest(wire, 0x7f, 21, []byte("k"), nil)
	wire = proto.AppendRequest(wire, proto.OpGet, 22, []byte("key003"), nil)
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	got := readResponses(t, proto.NewRespReader(conn, 0), 2)
	if got[21].Status != proto.StBadRequest {
		t.Fatalf("bad opcode: %+v", got[21])
	}
	if got[22].Status != proto.StValue {
		t.Fatalf("frame after bad opcode: %+v", got[22])
	}
	if n := s.NetStats().BadFrames; n != 1 {
		t.Fatalf("BadFrames = %d, want 1", n)
	}
}

// TestBinaryTooLarge: an oversized frame answers StTooLarge with its id
// and the connection keeps serving.
func TestBinaryTooLarge(t *testing.T) {
	s, ln := newTestServer(t, Options{MaxReq: 1024})
	conn := dial(t, ln)
	var wire []byte
	wire = proto.AppendRequest(wire, proto.OpPut, 31, []byte("k"), make([]byte, 4096))
	wire = proto.AppendRequest(wire, proto.OpGet, 32, []byte("key004"), nil)
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	got := readResponses(t, proto.NewRespReader(conn, 0), 2)
	if got[31].Status != proto.StTooLarge {
		t.Fatalf("oversized frame: %+v", got[31])
	}
	if got[32].Status != proto.StValue {
		t.Fatalf("frame after oversized: %+v", got[32])
	}
	if n := s.NetStats().TooLarge; n != 1 {
		t.Fatalf("TooLarge = %d, want 1", n)
	}
}

// TestMidFrameClose: a client that dies mid-frame still gets exactly
// one response for every complete frame it sent before the cut.
func TestMidFrameClose(t *testing.T) {
	_, ln := newTestServer(t, Options{})
	conn := dial(t, ln)
	const complete = 16
	var wire []byte
	for i := uint64(1); i <= complete; i++ {
		wire = proto.AppendRequest(wire, proto.OpPut, i, []byte("mk"), []byte("mv"))
	}
	partial := proto.AppendRequest(nil, proto.OpPut, 99, []byte("never"), []byte("finished"))
	wire = append(wire, partial[:len(partial)-3]...)
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite()
	got := readResponses(t, proto.NewRespReader(conn, 0), complete)
	for i := uint64(1); i <= complete; i++ {
		if got[i].Status != proto.StOK {
			t.Fatalf("id %d: %+v", i, got[i])
		}
	}
	// After the owed responses, the server must close: the partial
	// frame was never a request, so no response may appear for it.
	if r, err := proto.NewRespReader(conn, 0).Next(); err != io.EOF {
		t.Fatalf("after mid-frame close: resp %+v err %v, want EOF", r, err)
	}
}

// fanInConns picks the fan-in scale: bounded by the fd budget (client
// and server ends share this process) and kept small in -short.
func fanInConns(t *testing.T) int {
	if testing.Short() {
		return 128
	}
	target := 10_000
	if raceEnabled {
		// The race detector multiplies per-goroutine cost; scale down
		// so `make race` stays tractable on small machines.
		target = 1_000
	}
	var rl syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &rl); err == nil {
		if budget := (int(rl.Cur) - 512) / 2; budget < target {
			t.Logf("fd budget caps fan-in at %d conns (RLIMIT_NOFILE %d)", budget, rl.Cur)
			target = budget
		}
	}
	return target
}

// TestFanInExactlyOneResponse is the massive fan-in soak: C connections
// each pipeline a burst of requests; every request must get exactly one
// response, every connection must drain cleanly.
func TestFanInExactlyOneResponse(t *testing.T) {
	s, ln := newTestServer(t, Options{})
	conns := fanInConns(t)
	const perConn = 4
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	sem := make(chan struct{}, 256) // bound concurrent dial storms
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				errs <- fmt.Errorf("conn %d: dial: %w", c, err)
				return
			}
			defer conn.Close()
			var wire []byte
			key := []byte(fmt.Sprintf("key%03d", c%100))
			for i := uint64(0); i < perConn; i++ {
				if i%2 == 0 {
					wire = proto.AppendRequest(wire, proto.OpGet, i, key, nil)
				} else {
					wire = proto.AppendRequest(wire, proto.OpPut, i, key, []byte("v"))
				}
			}
			if _, err := conn.Write(wire); err != nil {
				errs <- fmt.Errorf("conn %d: write: %w", c, err)
				return
			}
			conn.(*net.TCPConn).CloseWrite()
			rr := proto.NewRespReader(conn, 0)
			seen := make(map[uint64]bool, perConn)
			for i := 0; i < perConn; i++ {
				r, err := rr.Next()
				if err != nil {
					errs <- fmt.Errorf("conn %d: response %d: %w", c, i, err)
					return
				}
				if seen[r.ID] {
					errs <- fmt.Errorf("conn %d: duplicate response id %d", c, r.ID)
					return
				}
				seen[r.ID] = true
				if r.Status != proto.StOK && r.Status != proto.StValue && r.Status != proto.StNotFound {
					errs <- fmt.Errorf("conn %d: id %d status %s", c, r.ID, proto.StatusString(r.Status))
					return
				}
			}
			if _, err := rr.Next(); err != io.EOF {
				errs <- fmt.Errorf("conn %d: trailing response (err %v)", c, err)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := s.NetStats()
	want := uint64(conns * perConn)
	if st.FramesIn != want || st.FramesOut != want {
		t.Fatalf("frames in/out = %d/%d, want %d each", st.FramesIn, st.FramesOut, want)
	}
	if st.Pipeline != 0 {
		t.Fatalf("pipeline gauge = %d after drain, want 0", st.Pipeline)
	}
	t.Logf("fan-in: %d conns × %d req, %d flushes (mean batch %.2f)",
		conns, perConn, st.Flushes, float64(st.FramesOut)/float64(st.Flushes))
}

// TestDrainAnswersStopped: requests in flight when the runtime stops
// are answered STOPPED (binary: StStopped), not dropped.
func TestDrainAnswersStopped(t *testing.T) {
	store := kv.New()
	rt := live.New(&KVHandler{Store: store}, live.Options{Workers: 1, PinThreads: false})
	rt.Start()
	s := New(rt, Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Park a long spin so the stop overlaps live work, then a tail of
	// gets that may land before or after the stop takes effect. Wait
	// for the spin's acceptance before stopping — on a loaded single
	// CPU the reader goroutine may lag the client's write by
	// milliseconds, and a spin submitted after Stop is (correctly)
	// rejected, which is not the path this test exercises.
	wire := proto.AppendSpinRequest(nil, 1, 20_000)
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the spin's submission", func() bool { return rt.Stats().Submitted > 0 })
	go rt.Stop()
	// The get goes out once Stop has taken effect: a probe submitted
	// from here is refused.
	waitFor(t, "Stop to take effect", func() bool {
		probe := &Request{Op: proto.OpGet, Key: []byte("probe")}
		return errors.Is((<-rt.Submit(probe)).Err, live.ErrServerStopped)
	})
	wire = proto.AppendRequest(nil, proto.OpGet, 2, []byte("k"), nil)
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite()
	got := readResponses(t, proto.NewRespReader(conn, 0), 2)
	if got[1].Status != proto.StOK {
		t.Fatalf("spin during drain: %s", proto.StatusString(got[1].Status))
	}
	if st := got[2].Status; st != proto.StStopped {
		t.Fatalf("request after stop: %s, want STOPPED", proto.StatusString(st))
	}
	ln.Close()
	s.Drain(200 * time.Millisecond)
}

// TestTextClassTokens: an @class prefix parses case-insensitively in
// front of any data op, an unknown @token or a bare token is a parse
// error (not a silent downgrade), and the line after the error still
// parses — lockstep text never desyncs on a bad class.
func TestTextClassTokens(t *testing.T) {
	_, ln := newTestServer(t, Options{})
	conn := dial(t, ln)
	send := "@critical GET key000\n@SHEDDABLE get key000\n@standard PUT ck cv\n" +
		"@critical GET ck\n@premium GET key000\n@critical\nGET key000\n"
	if _, err := io.WriteString(conn, send); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"VALUE value", "VALUE value", "OK", "VALUE cv",
		"ERR unknown SLO class @premium", "ERR class token needs a command",
		"VALUE value",
	}
	br := bufio.NewReader(conn)
	for i, w := range want {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if got := strings.TrimSuffix(line, "\n"); got != w {
			t.Fatalf("response %d = %q, want %q", i, got, w)
		}
	}
}

// TestBinaryClassFrames: v2 frames with known classes serve normally
// interleaved with v1 frames; an out-of-range class byte answers
// StBadRequest for that id (a malformed v2 frame, not a downgrade to
// standard) and the length-delimited stream keeps serving.
func TestBinaryClassFrames(t *testing.T) {
	s, ln := newTestServer(t, Options{})
	conn := dial(t, ln)
	var wire []byte
	wire = proto.AppendClassRequest(wire, proto.OpGet, 1, 41, []byte("key005"), nil)
	wire = proto.AppendClassRequest(wire, proto.OpGet, 2, 42, []byte("key005"), nil)
	wire = proto.AppendRequest(wire, proto.OpGet, 43, []byte("key005"), nil)
	wire = proto.AppendClassRequest(wire, proto.OpGet, 7, 44, []byte("key005"), nil)
	wire = proto.AppendClassRequest(wire, proto.OpGet, 1, 45, []byte("key005"), nil)
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	got := readResponses(t, proto.NewRespReader(conn, 0), 5)
	for _, id := range []uint64{41, 42, 43, 45} {
		if r := got[id]; r.Status != proto.StValue || string(r.Payload) != "value" {
			t.Fatalf("classed GET id %d: %+v", id, r)
		}
	}
	if got[44].Status != proto.StBadRequest {
		t.Fatalf("unknown class byte: %+v, want StBadRequest", got[44])
	}
	if n := s.NetStats().BadFrames; n != 1 {
		t.Fatalf("BadFrames = %d, want 1", n)
	}
}

// plug is a request that holds whatever runs it, worker or dispatcher,
// without polling until release closes; sheddableFill is a sheddable
// request that does nothing.
type (
	plug          struct{}
	sheddableFill struct{}
)

func (sheddableFill) SLOClass() live.SLOClass { return live.ClassSheddable }

// pluggableKV is KVHandler plus the plug and fill requests.
type pluggableKV struct {
	*KVHandler
	entered, release chan struct{}
}

func (h pluggableKV) Handle(ctx *live.Ctx, payload any) (any, error) {
	switch payload.(type) {
	case plug:
		h.entered <- struct{}{}
		<-h.release
		return nil, nil
	case sheddableFill:
		return nil, nil
	}
	return h.KVHandler.Handle(ctx, payload)
}

// TestBinaryShedOnWire: live.ErrShed crosses the wire as StShed. A
// one-worker runtime is plugged — its worker and its dispatcher each run
// a request that holds them, a third waits in the worker's queue — and
// its ingress buffer filled with sheddable requests up to the sheddable
// watermark; then it is flooded with pipelined sheddable GETs behind a
// SPIN. The overflow must come back SHED (not OVERLOADED), and every
// frame is answered once the plugs are let go.
func TestBinaryShedOnWire(t *testing.T) {
	store := kv.New()
	store.Put([]byte("k"), []byte("v"))
	h := pluggableKV{KVHandler: &KVHandler{Store: store, ScanBatch: 64},
		entered: make(chan struct{}, 3), release: make(chan struct{})}
	rt := live.New(h, live.Options{
		Workers:        1,
		ClassAdmission: true,
		PinThreads:     false,
	})
	rt.Start()
	var once sync.Once
	release := func() { once.Do(func() { close(h.release) }) }
	defer release() // before the cleanups, whose Stop waits for the plugs
	for i := 0; i < 3; i++ {
		rt.Submit(plug{})
	}
	<-h.entered
	<-h.entered // the worker and the dispatcher are held
	for full := false; !full; {
		rt.SubmitFunc(sheddableFill{}, func(r live.Response) {
			if r.Err == live.ErrShed { // answered at once, on this goroutine
				full = true
			}
		})
	}
	s := New(rt, Options{})
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
	const floods = 64
	var wire []byte
	wire = proto.AppendSpinRequest(wire, 1, 20_000)
	for i := uint64(0); i < floods; i++ {
		wire = proto.AppendClassRequest(wire, proto.OpGet, byte(live.ClassSheddable), 100+i, []byte("k"), nil)
	}
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	rd := proto.NewRespReader(conn, 0)
	got := readResponses(t, rd, floods) // every GET is refused at once
	release()
	for id, r := range readResponses(t, rd, 1) {
		got[id] = r
	}
	if got[1].Status != proto.StOK {
		t.Fatalf("spin: %+v", got[1])
	}
	shed := 0
	for i := uint64(0); i < floods; i++ {
		switch r := got[100+i]; r.Status {
		case proto.StShed:
			shed++
		case proto.StValue:
		default:
			t.Fatalf("sheddable GET id %d: status %s — sheddable overflow must be SHED, never %s",
				100+i, proto.StatusString(proto.StShed), proto.StatusString(r.Status))
		}
	}
	if shed == 0 {
		t.Fatal("64 sheddable GETs into an ingress at the sheddable watermark and none were shed")
	}
}

// TestWireAllocsPerRequest pins what one request over loopback TCP
// allocates in the whole process, server and client ends together, at
// the measured figure plus one, so a single allocation creeping onto
// either path fails here.
// Measured: lockstep text 0.03 (the connections' fixed cost and the cold
// pools, spread over the requests), lockstep binary 1.02,
// pipelined binary 1.04, and the binary one is the client's —
// proto.RespReader.Next's header array escapes — so the server allocates
// nothing per request on the reader path or through the flusher. A
// handful of connections is enough for a per-request count.
func TestWireAllocsPerRequest(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool discards at random under the race detector")
	}
	const (
		conns   = 4
		perConn = 2000
	)
	text := func(conn net.Conn) error {
		br := bufio.NewReader(conn)
		wire := []byte("GET key001\n")
		for i := 0; i < perConn; i++ {
			if _, err := conn.Write(wire); err != nil {
				return err
			}
			if line, err := br.ReadSlice('\n'); err != nil || string(line) != "VALUE value\n" {
				return fmt.Errorf("GET replied %q, %v", line, err)
			}
		}
		return nil
	}
	// Windowed pipelining, one reused frame buffer: depth requests in
	// flight, the next sent as each response arrives.
	binary := func(depth int) func(net.Conn) error {
		return func(conn net.Conn) error {
			rr := proto.NewRespReader(conn, 0)
			var wire []byte
			for sent, recvd := 0, 0; recvd < perConn; {
				for ; sent < perConn && sent-recvd < depth; sent++ {
					wire = proto.AppendRequest(wire[:0], proto.OpGet, uint64(sent), []byte("key001"), nil)
					if _, err := conn.Write(wire); err != nil {
						return err
					}
				}
				r, err := rr.Next()
				if err != nil || r.Status != proto.StValue {
					return fmt.Errorf("GET replied %s, %v", proto.StatusString(r.Status), err)
				}
				recvd++
			}
			return nil
		}
	}
	_, ln := newTestServer(t, Options{})
	for _, tc := range []struct {
		name   string
		client func(net.Conn) error
		below  float64
	}{
		{"text/lockstep", text, 1},
		{"binary/lockstep", binary(1), 2},
		{"binary/depth16", binary(16), 2},
	} {
		cs := make([]net.Conn, conns)
		for i := range cs {
			cs[i] = dial(t, ln)
		}
		errs := make([]error, conns)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var wg sync.WaitGroup
		for i := range cs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = tc.client(cs[i])
			}(i)
		}
		wg.Wait()
		runtime.ReadMemStats(&after)
		for _, err := range errs {
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		perReq := float64(after.Mallocs-before.Mallocs) / (conns * perConn)
		t.Logf("%s: %.3f allocs/req", tc.name, perReq)
		if perReq >= tc.below {
			t.Errorf("%s: %.3f allocs/req over the wire, want < %v", tc.name, perReq, tc.below)
		}
	}
}
