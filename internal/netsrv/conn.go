// The connection loop, shared by both protocols: a reader that takes
// requests off the wire and serves them, a flusher that writes the
// responses of requests the runtime completes on its own goroutines, and
// between them the connection's window. A request the reader can run
// without waiting it runs itself, and it writes those responses in
// batches of its own.
package netsrv

import (
	"errors"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"concord/internal/live"
	"concord/internal/obs"
)

// binaryWindow is a binary connection's window: how many of its requests
// may be anywhere between "read off the wire" and "response written".
// Sized above any pipeline depth a shipped client opens (concord-load
// and the benchmark run 16 deep), so it binds only on a client that
// writes without reading; a server-wide ingress of 4096 slots then takes
// 64 such connections, not one, to fill.
const binaryWindow = 64

// A codec is what differs between the two protocols.
type codec interface {
	// next takes the next request off the wire into r. It reports
	// whether r is to be submitted; when not, r already carries its
	// response (oversize, malformed, or a control verb). An error ends
	// the connection: nothing was read that is owed a response.
	next(r *Request) (submit bool, err error)
	// ready reports whether the next request is already buffered whole,
	// so that next returns it without reading the socket — and so
	// without an error. It may say no when unsure; it must not say yes.
	ready() bool
	// appendResp encodes r's response.
	appendResp(b []byte, r *Request) []byte
	// flushed reports that one write carried n responses to the socket.
	flushed(n int)
}

// connection is one connection being served. The exactly-one-response
// invariant lives in slots: the reader takes one before each read, the
// request read carries it through the runtime to its write, and it
// returns only after the response has been written — so at most
// cap(slots) requests are in flight, completed never blocks a sender,
// and the connection is drained when every slot is back.
type connection struct {
	s    *Server
	conn net.Conn
	cd   codec

	slots     chan struct{}
	completed chan *Request // cap(slots): every sender holds a slot

	// completeFn is c.complete bound once; passing the method value at
	// the submit site would allocate per request.
	completeFn func(live.Response)

	// wmu serializes the connection's two writers, the reader and the
	// flusher. dead, set under it by the first failed write, drops every
	// later write, so the failure is counted once per connection; the
	// reader loads it without the lock (armIdle).
	wmu  sync.Mutex
	dead atomic.Bool
}

// serve runs one connection to the end of its input. The reader takes a
// slot before the read, not before the submit: a text request's Key and
// Val alias the read buffer, which the next read overwrites, so with a
// window of 1 the next line is not read until this one's response has
// been encoded — which is also what keeps text replies in request order.
//
// One rule serves every request the codec hands over. Text goes through
// live.Do: with a window of 1 the client sends nothing until it has the
// answer, so the reader loses nothing by waiting. A binary GET, PUT or
// DEL goes through live.TryDo, which runs it on the reader when it can
// lend it an idle worker and otherwise submits it like SubmitFunc without
// waiting: a reader that waited on a queue would stop reading, and a
// client pipelining behind the request would be served in lockstep. A
// SPIN or SCAN goes through SubmitFunc, so a GET pipelined behind one is
// still read, and answered first. What goes through the runtime's queues
// completes into the flusher.
//
// Responses to the requests the reader ran collect in its own batch,
// which it writes in one call at the last moment it can: before a read
// that could block on the socket (no whole request buffered), and before
// it waits for a slot when its window is full. Lockstep is the depth-1
// case: one request read, run and written per read. A read that could
// block is also the one the idle deadline is re-armed for; a request
// already buffered re-arms nothing.
func (c *connection) serve(cd codec, window int) {
	s := c.s
	c.cd = cd
	c.slots = make(chan struct{}, window)
	c.completed = make(chan *Request, window)
	c.completeFn = c.complete
	flusherDone := make(chan struct{})
	go c.flush(flusherDone)
	own, wbuf := make([]*Request, 0, window), []byte(nil)
	for {
		if len(own) > 0 && (len(c.slots) == window || !cd.ready()) {
			wbuf = c.write(own, wbuf)
			own = own[:0]
		}
		c.slots <- struct{}{}
		r := s.getReq()
		if !cd.ready() {
			c.armIdle()
		}
		submit, err := cd.next(r)
		if err != nil {
			// EOF, mid-request close, desync, an expired deadline (idle,
			// Drain, or a failed write). What was cut short was never a
			// request; its slot is the first one taken back. The reader's
			// batch is empty: it is written before any next that can fail.
			c.readFailed(err)
			s.putReq(r)
			break
		}
		s.pipeline.Add(1)
		switch {
		case !submit:
			c.completed <- r
		case window == 1:
			own = append(own, c.record(s.rt.Do(r)))
		case r.pointOp():
			if resp, ran := s.rt.TryDo(r, c.completeFn); ran {
				own = append(own, c.record(resp))
			}
		default:
			s.rt.SubmitFunc(r, c.completeFn)
		}
	}
	// Take every other slot back: each returns once its response has been
	// written (or dropped, on a dead socket), so no accepted request is
	// left unanswered when the connection closes.
	for held := 1; held < window; held++ {
		c.slots <- struct{}{}
	}
	close(c.completed)
	<-flusherDone
}

// armIdle gives the read about to block the idle timeout, when there is
// one. It arms first and looks second: if Drain or a failed write has set
// a deadline meanwhile, it puts that one back, so it never extends an
// expired or sooner deadline whichever order the two land in.
func (c *connection) armIdle() {
	wt := c.s.opts.WriteTimeout
	if wt <= 0 {
		return
	}
	until := time.Now().Add(idleWrites * wt)
	c.conn.SetReadDeadline(until)
	if c.dead.Load() {
		c.conn.SetReadDeadline(time.Unix(1, 0))
	} else if by := c.s.drainBy.Load(); by != 0 && by < until.UnixNano() {
		c.conn.SetReadDeadline(time.Unix(0, by))
	}
}

// readFailed counts a read that ended the connection at the idle
// deadline: not at one Drain or a failed write set.
func (c *connection) readFailed(err error) {
	if errors.Is(err, os.ErrDeadlineExceeded) && !c.dead.Load() && c.s.drainBy.Load() == 0 {
		c.s.idleClosed.Add(1)
	}
}

// complete is the connection's one live.SubmitFunc callback: every
// request carries itself back in Response.Req, so completion needs no
// per-request closure. It runs on the completing executor and must not
// block — the send cannot, see connection.
func (c *connection) complete(resp live.Response) {
	c.completed <- c.record(resp)
}

// record writes a completed request's outcome into it — status mapping,
// Observe, the |OBS trailer — and marks it queued for writing.
func (c *connection) record(resp live.Response) *Request {
	r := resp.Req.(*Request)
	r.liveID, r.doneTS = resp.ID, resp.Done
	if resp.Err != nil {
		r.Status, r.errMsg = statusForErr(resp.Err)
		r.Out, r.Count = nil, 0
	}
	if observe := c.s.opts.Observe; observe != nil {
		observe(r.Op, resp)
	}
	if r.obsOn && c.s.opts.Trailer != nil {
		r.trailer = c.s.opts.Trailer(resp)
	}
	if tr := c.s.tr; tr != nil {
		tr.Record(obs.WriterNet, obs.EvFlushQueued, r.liveID, 0)
	}
	return r
}

// flush is the flusher goroutine: it coalesces whatever has completed —
// in completion order, not arrival order — into one write. It closes
// done when completed is closed and drained.
func (c *connection) flush(done chan<- struct{}) {
	defer close(done)
	batch, buf := make([]*Request, 0, cap(c.completed)), []byte(nil)
	for r := range c.completed {
		batch = append(batch[:0], r)
		for n := len(c.completed); n > 0; n-- {
			batch = append(batch, <-c.completed)
		}
		buf = c.write(batch, buf)
	}
}

// write encodes batch into buf, writes it to the socket in one call and
// releases the batch. The flusher and the reader both write through it,
// one at a time under wmu. A failed write — the client is gone, or
// stopped reading for WriteTimeout — marks the connection dead and
// expires the read deadline, so the reader stops taking work for a
// socket nobody reads. It returns buf for reuse.
func (c *connection) write(batch []*Request, buf []byte) []byte {
	defer c.release(batch)
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.dead.Load() {
		return buf
	}
	buf = buf[:0]
	for _, r := range batch {
		buf = c.cd.appendResp(buf, r)
	}
	if wt := c.s.opts.WriteTimeout; wt > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(wt))
	}
	if _, err := c.conn.Write(buf); err != nil {
		c.dead.Store(true)
		c.s.writeClosed.Add(1)
		c.conn.SetReadDeadline(time.Unix(1, 0))
		return buf
	}
	c.cd.flushed(len(batch))
	if tr, obsEg := c.s.tr, c.s.opts.ObserveEgress; tr != nil || obsEg != nil {
		// One clock read covers the whole batch: every response in it
		// reached the socket in the same write.
		now := live.Now()
		for _, r := range batch {
			if r.liveID == 0 {
				continue // answered by the codec: never entered the runtime
			}
			if tr != nil {
				tr.RecordAt(obs.WriterNet, obs.EvFlushed, r.liveID, int64(len(batch)), now)
			}
			if obsEg != nil && !r.doneTS.IsZero() {
				obsEg(r.Op, now.Sub(r.doneTS))
			}
		}
	}
	return buf
}

// release recycles a batch whose responses have been encoded (dropping
// the frame buffers they pinned) and returns its slots.
func (c *connection) release(batch []*Request) {
	for i, r := range batch {
		c.s.putReq(r)
		batch[i] = nil
	}
	c.s.pipeline.Add(-int64(len(batch)))
	for range batch {
		<-c.slots
	}
}
