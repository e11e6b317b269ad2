// Package netsrv is the KV server's connection layer: it speaks both
// wire protocols on top of a live.Server and owns every per-connection
// goroutine.
//
// Each accepted connection is auto-detected by its first byte. Binary
// frames open with a request magic (0xC2 v1 / 0xC4 v2, high bit set),
// text commands with an ASCII letter (or '@' for a class token), so one
// byte disambiguates and is replayed into the chosen decoder — a client
// never announces its protocol.
//
// One loop (conn.go) serves both: a reader goroutine takes requests off
// the wire and serves them, a flusher goroutine coalesces the
// completions the runtime delivers — arriving in any order — into
// single-write batches, and between them sits the connection's window:
// the reader takes a slot before each read, and a slot returns after
// its response is written. The window bounds what one connection can
// hold in the runtime (a flooding client is back-pressured, not
// rejected, and cannot take the server's admission budget), bounds
// everything the connection buffers, and makes draining "take every
// slot back". The reader serves by one rule: text through live.Do, a
// binary GET, PUT or DEL through live.TryDo — run on the reader when an
// idle worker can be lent to it, submitted without waiting otherwise —
// and a SPIN or SCAN through live.SubmitFunc, so it never holds up a GET
// pipelined behind it. What the reader ran it writes itself, in one
// batch per drained read: before a read that could block, or before it
// waits for a slot of a full window. Lockstep is the depth-1 case. The
// reader and the flusher write under one mutex; the first write that
// fails or times out marks the connection dead (later writes are
// dropped, so it is counted once) and expires the read deadline, so a
// client that went away or stopped reading is disconnected instead of
// served. A client that stops sending is disconnected too: before a read
// that can block, the reader arms a deadline idleWrites × WriteTimeout
// ahead (NetStats.IdleClosed).
//
// What differs between the protocols is a codec — take the next request
// off the wire, append a response:
//
//   - Binary (binary.go): length-prefixed frames decoded zero-copy into
//     pooled ref-counted buffers, responses matched to requests by id,
//     window 64. The frame and flush counters are its own.
//   - Text (text.go): the historical line protocol, parsed in place with
//     no allocation, window 1 — which is what keeps replies in request
//     order. Control verbs (Options.Control) are answered by the codec;
//     their output rides the Request to the flusher.
//
// Both reject oversized requests (frame body or text line over
// Options.MaxReq) with a single-token TOOLARGE response on a
// still-usable stream, never by silent truncation.
package netsrv

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"concord/internal/live"
	"concord/internal/obs"
	"concord/internal/proto"
)

// Options configures the connection layer.
type Options struct {
	// MaxReq bounds one request: a binary frame's body (key+value
	// bytes) or a text line. Oversized requests answer TOOLARGE
	// (StTooLarge) and the connection stays usable. Default 1 MiB.
	MaxReq int
	// WriteTimeout bounds each flush: a client that stops reading is
	// disconnected when one times out (NetStats.WriteClosed) instead of
	// pinning the connection's goroutines forever. It also sets the idle
	// timeout, idleWrites times as long: a client that sends nothing for
	// that long while the reader waits for its next request is
	// disconnected (NetStats.IdleClosed). 0 disables both, which is a
	// sharp edge: with no idle deadline either, a client that connects
	// and goes silent holds its connection, and the reader goroutine
	// serving it, until it closes or the server drains.
	WriteTimeout time.Duration
	// BufSize is the pooled read-buffer size for binary connections
	// (frames larger than it, up to MaxReq, take a one-off buffer).
	// Default 4096; kept small because massive fan-in multiplies it by
	// the connection count.
	BufSize int
	// Control, when non-nil, intercepts text lines whose op the data
	// protocol does not know (STATS, TRACE, OBS ...). It reports
	// whether it handled the line; obsOn is the connection's
	// breakdown-trailer toggle. Output is the line's response, written
	// by the connection's flusher like any other.
	Control func(out io.Writer, line string, obsOn *bool) bool
	// Observe, when non-nil, receives every completed data response
	// (both modes), refusals included: the one place a server built on
	// this layer observes completions (latency histograms, tail and SLO
	// tracking, capture for replay). It runs on the completing executor
	// or on the connection's reader, possibly on several at once, so it
	// must be safe for concurrent use and must not block.
	Observe func(op byte, resp live.Response)
	// Trailer, when non-nil, renders the |OBS breakdown trailer
	// appended to text responses while the connection has OBS ON. It
	// runs when the request completes, on the completing worker or on
	// the connection's reader.
	Trailer func(resp live.Response) string
	// Tracer, when non-nil, extends lifecycle tracing across the wire
	// path: requests are stamped at frame read and parse (recorded as
	// EvFrameRead/EvParsed at Submit — Request implements live.NetTimed)
	// and completion and flush record EvFlushQueued/EvFlushed under the
	// obs.WriterNet ring. It must be the same tracer the live.Server
	// runs with, or the events won't merge into one stream. When nil,
	// every wire instrumentation point is a single nil-check branch.
	Tracer *obs.Tracer
	// ObserveEgress, when non-nil, receives every flushed data
	// response's egress latency (completion → bytes written to the
	// socket), for per-op histograms. Responses whose write failed are
	// not observed. It runs on the goroutine that wrote the response,
	// under the connection's write lock, so it must not block.
	ObserveEgress func(op byte, egress time.Duration)
}

func (o Options) withDefaults() Options {
	if o.MaxReq <= 0 {
		o.MaxReq = 1 << 20
	}
	if o.BufSize <= 0 {
		o.BufSize = 4096
	}
	return o
}

// idleWrites is the idle timeout in write timeouts: a client may keep the
// server waiting for its next request that many times as long as it may
// keep it waiting to take a response.
const idleWrites = 12

// NetStats is a snapshot of the connection layer's counters.
type NetStats struct {
	Conns       int64  // currently open connections
	Pipeline    int64  // requests read off the wire, response not yet written (both protocols)
	FramesIn    uint64 // binary request frames decoded
	FramesOut   uint64 // binary response frames written
	Flushes     uint64 // batched response writes (FramesOut/Flushes = mean batch)
	TextLines   uint64 // text-protocol lines served (data + control)
	TooLarge    uint64 // requests rejected for exceeding MaxReq
	BadFrames   uint64 // frames with an unknown opcode or undecodable body
	WriteClosed uint64 // connections closed by a failed or timed-out response write
	IdleClosed  uint64 // connections closed after sending nothing for the idle timeout
}

// Server serves both wire protocols on top of a live runtime.
type Server struct {
	rt   *live.Server
	opts Options

	// tr is Options.Tracer as a concrete field so the disabled path is
	// one nil-check branch per wire event site (same contract as
	// live.Server.tr).
	tr *obs.Tracer

	bufPool *proto.Pool
	reqPool sync.Pool

	conns       atomic.Int64
	pipeline    atomic.Int64
	framesIn    atomic.Uint64
	framesOut   atomic.Uint64
	flushes     atomic.Uint64
	textLines   atomic.Uint64
	tooLarge    atomic.Uint64
	badFrames   atomic.Uint64
	writeClosed atomic.Uint64
	idleClosed  atomic.Uint64
	// drainBy is the read deadline Drain set (UnixNano), 0 before Drain:
	// a reader arming its idle deadline never sets a later one.
	drainBy atomic.Int64
	// flushBatch is the distribution of responses per flush: depth of
	// coalescing under load (1 everywhere means no pipelining benefit).
	flushBatch obs.QuantileSketch

	mu     sync.Mutex
	open   map[net.Conn]struct{}
	connWG sync.WaitGroup
}

// New builds a connection layer over rt.
func New(rt *live.Server, opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		rt:      rt,
		opts:    opts,
		tr:      opts.Tracer,
		bufPool: proto.NewPool(opts.BufSize),
		open:    make(map[net.Conn]struct{}),
	}
	s.reqPool.New = func() any { return new(Request) }
	return s
}

// NetStats snapshots the connection-layer counters.
func (s *Server) NetStats() NetStats {
	return NetStats{
		Conns:       s.conns.Load(),
		Pipeline:    s.pipeline.Load(),
		FramesIn:    s.framesIn.Load(),
		FramesOut:   s.framesOut.Load(),
		Flushes:     s.flushes.Load(),
		TextLines:   s.textLines.Load(),
		TooLarge:    s.tooLarge.Load(),
		BadFrames:   s.badFrames.Load(),
		WriteClosed: s.writeClosed.Load(),
		IdleClosed:  s.idleClosed.Load(),
	}
}

// FlushBatch is the sketch of responses coalesced per flush (observed
// as plain counts), for metrics registration.
func (s *Server) FlushBatch() *obs.QuantileSketch { return &s.flushBatch }

// Serve accepts connections until ln is closed, serving each on its
// own goroutine. It returns after the accept loop exits; in-flight
// connections are still running — bound them with Drain.
func (s *Server) Serve(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.connWG.Add(1)
		go func() {
			defer s.connWG.Done()
			s.ServeConn(conn)
		}()
	}
}

// Drain gives open connections a grace window to finish writing
// responses for requests already in flight — instead of a reset — by
// arming a read deadline, then waits for every connection goroutine.
// Call after the runtime's Stop so late requests answer STOPPED.
func (s *Server) Drain(grace time.Duration) {
	by := time.Now().Add(grace)
	s.drainBy.Store(by.UnixNano())
	s.mu.Lock()
	for c := range s.open {
		c.SetReadDeadline(by)
	}
	s.mu.Unlock()
	s.connWG.Wait()
}

// ServeConn serves one connection to completion and closes it. The
// first byte picks the protocol: a request magic (either frame
// version) is a binary client (text ops start with ASCII letters or
// '@'; the magics have the high bit set, so the byte is unambiguous).
func (s *Server) ServeConn(conn net.Conn) {
	defer conn.Close()
	s.mu.Lock()
	s.open[conn] = struct{}{}
	s.mu.Unlock()
	s.conns.Add(1)
	defer func() {
		s.mu.Lock()
		delete(s.open, conn)
		s.mu.Unlock()
		s.conns.Add(-1)
	}()

	c := &connection{s: s, conn: conn}
	var first [1]byte
	c.armIdle()
	if _, err := io.ReadFull(conn, first[:]); err != nil {
		c.readFailed(err)
		return
	}
	if proto.IsReqMagic(first[0]) {
		fr := proto.NewFrameReader(conn, s.bufPool, s.opts.MaxReq)
		fr.Prime(first[:])
		defer fr.Close()
		c.serve(&binaryCodec{s: s, fr: fr}, binaryWindow)
	} else {
		br := bufio.NewReaderSize(io.MultiReader(bytes.NewReader(first[:]), conn), 1<<16)
		c.serve(&textCodec{s: s, br: br}, 1)
	}
}

func (s *Server) getReq() *Request {
	return s.reqPool.Get().(*Request)
}

// putReq recycles a request after its response has been encoded,
// dropping the frame-buffer reference it pinned.
func (s *Server) putReq(r *Request) {
	r.reset()
	s.reqPool.Put(r)
}
