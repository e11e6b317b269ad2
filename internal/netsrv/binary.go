// Binary mode: the pipelined zero-copy path. One reader goroutine
// decodes frames and submits them; one flusher goroutine coalesces
// completions into batched writes. Responses go out in completion
// order, not arrival order — the client matches them by request id.
package netsrv

import (
	"errors"
	"net"
	"sync"
	"time"

	"concord/internal/live"
	"concord/internal/obs"
	"concord/internal/proto"
)

func (s *Server) serveBinary(conn net.Conn, first []byte) {
	fr := proto.NewFrameReader(conn, s.bufPool, s.opts.MaxReq)
	fr.Prime(first)
	fl := &flusher{
		s:       s,
		conn:    conn,
		wake:    make(chan struct{}, 1),
		quit:    make(chan struct{}),
		stopped: make(chan struct{}),
		pending: make([]*Request, 0, 64),
		spare:   make([]*Request, 0, 64),
	}
	// Bind the completion callback once: a `fl.complete` method-value
	// expression at the submit site would allocate a fresh closure per
	// request.
	fl.completeFn = fl.complete
	go fl.run()

	// The exactly-one-response invariant: every frame taken off the
	// wire joins inflight before it is submitted (or enqueued as a
	// synthetic error) and leaves only after its response is flushed.
	// When the reader stops — clean EOF, mid-frame close, desync — it
	// waits out inflight before the connection dies, so no accepted
	// request's response is ever dropped on the floor.
	for {
		f, err := fr.Next()
		if err != nil {
			var tl *proto.TooLargeError
			if errors.As(err, &tl) {
				// Oversized frame: the body was discarded and the stream
				// is still synced. Answer TOOLARGE and keep serving.
				s.tooLarge.Add(1)
				r := s.getReq()
				r.ID, r.Status = tl.ID, proto.StTooLarge
				fl.inflight.Add(1)
				fl.enqueue(r)
				continue
			}
			// EOF at a boundary, mid-frame close, desync (ErrBadMagic),
			// read error: stop reading. Mid-frame data was never a
			// request, so no response is owed for it.
			if errors.Is(err, proto.ErrBadMagic) {
				s.badFrames.Add(1)
			}
			break
		}
		s.framesIn.Add(1)
		r := s.getReq()
		r.Op, r.ID, r.Key, r.Val, r.frame = f.Op, f.ID, f.Key, f.Val, f
		if f.Class != 0 {
			if cl := live.SLOClass(f.Class); cl < live.NumClasses {
				r.Class = cl
			} else {
				// A class byte the server doesn't know is a malformed v2
				// frame, not a silent downgrade to standard: reject it so
				// the tenant's misconfiguration is visible.
				s.badFrames.Add(1)
				r.Status, r.errMsg = proto.StBadRequest, "unknown SLO class"
				fl.inflight.Add(1)
				fl.enqueue(r)
				continue
			}
		}
		if s.tr != nil {
			r.readTS = time.Now()
		}
		fl.inflight.Add(1)
		if !r.decodeOp() {
			// Unknown opcode or undecodable body: the frame was
			// length-delimited so the stream is synced; reject just this
			// request.
			s.badFrames.Add(1)
			r.Status = proto.StBadRequest
			fl.enqueue(r)
			continue
		}
		if s.tr != nil {
			r.parsedTS = time.Now()
		}
		s.pipeline.Add(1)
		s.rt.SubmitFunc(r, fl.completeFn)
	}
	fr.Close()
	fl.inflight.Wait()
	fl.stop()
}

// flusher drains one connection's completion ring: completions append
// to pending under a mutex and nudge the cap-1 wake channel; the run
// loop swaps the slice out (ping-pong with spare, so steady state
// allocates nothing), encodes the whole batch into one reused buffer,
// and writes it with a single conn.Write.
type flusher struct {
	s    *Server
	conn net.Conn

	mu      sync.Mutex
	pending []*Request
	spare   []*Request

	wake    chan struct{}
	quit    chan struct{}
	stopped chan struct{}

	// completeFn is fl.complete bound once at construction; passing the
	// method value directly would allocate per submission.
	completeFn func(live.Response)

	// inflight tracks accepted frames whose response has not flushed;
	// the reader waits on it before tearing the connection down.
	inflight sync.WaitGroup

	wbuf   []byte
	broken bool // conn write failed: keep draining, stop writing
}

// complete is the single shared live.SubmitFunc callback for the
// connection: every request carries itself back via Response.Req, so
// completion needs no per-request closure or channel. It runs on the
// completing executor and must not block; enqueue is a short critical
// section plus a non-blocking channel nudge.
func (fl *flusher) complete(resp live.Response) {
	r := resp.Req.(*Request)
	r.liveID, r.doneTS = resp.ID, resp.Done
	if resp.Err != nil {
		r.Status, r.errMsg = statusForErr(resp.Err)
		r.Out, r.Count = nil, 0
	}
	if obs := fl.s.opts.Observe; obs != nil {
		obs(r.Op, resp)
	}
	fl.s.pipeline.Add(-1)
	fl.enqueue(r)
}

func (fl *flusher) enqueue(r *Request) {
	// liveID == 0 marks synthetic responses (TOOLARGE, bad frames) that
	// never entered the runtime: no lifecycle to attribute flushes to.
	if tr := fl.s.tr; tr != nil && r.liveID != 0 {
		tr.Record(obs.WriterNet, obs.EvFlushQueued, r.liveID, 0)
	}
	fl.mu.Lock()
	fl.pending = append(fl.pending, r)
	fl.mu.Unlock()
	select {
	case fl.wake <- struct{}{}:
	default: // already signaled; the pending batch will carry this one
	}
}

func (fl *flusher) run() {
	defer close(fl.stopped)
	for {
		select {
		case <-fl.wake:
			fl.flush()
		case <-fl.quit:
			fl.flush() // final drain; empty by construction (see stop)
			return
		}
	}
}

// stop shuts the flusher down. Callers must have waited out inflight
// first, so pending is already flushed or about to be by the final
// drain.
func (fl *flusher) stop() {
	close(fl.quit)
	<-fl.stopped
}

func (fl *flusher) flush() {
	fl.mu.Lock()
	batch := fl.pending
	fl.pending = fl.spare
	fl.mu.Unlock()
	if len(batch) == 0 {
		fl.spare = batch
		return
	}
	wbuf := fl.wbuf[:0]
	for _, r := range batch {
		wbuf = r.appendResp(wbuf)
	}
	fl.wbuf = wbuf
	wrote := false
	if !fl.broken {
		if wt := fl.s.opts.WriteTimeout; wt > 0 {
			fl.conn.SetWriteDeadline(time.Now().Add(wt))
		}
		if _, err := fl.conn.Write(wbuf); err != nil {
			// The client is gone or stalled past the deadline. Responses
			// still owed have nowhere to go; keep consuming completions
			// so their buffers recycle and the reader's inflight drains.
			fl.broken = true
		} else {
			wrote = true
		}
	}
	fl.s.flushes.Add(1)
	fl.s.framesOut.Add(uint64(len(batch)))
	fl.s.flushBatch.Observe(int64(len(batch)))
	if tr, obsEg := fl.s.tr, fl.s.opts.ObserveEgress; wrote && (tr != nil || obsEg != nil) {
		// One clock read covers the whole batch: every response in it
		// reached the socket in the same write.
		now := time.Now()
		for _, r := range batch {
			if r.liveID == 0 {
				continue // synthetic response: never entered the runtime
			}
			if tr != nil {
				tr.RecordAt(obs.WriterNet, obs.EvFlushed, r.liveID, int64(len(batch)), now)
			}
			if obsEg != nil && !r.doneTS.IsZero() {
				obsEg(r.Op, now.Sub(r.doneTS))
			}
		}
	}
	n := len(batch)
	for i := range batch {
		fl.s.putReq(batch[i]) // releases the frame buffer the encode drained
		batch[i] = nil
	}
	fl.spare = batch[:0]
	fl.inflight.Add(-n)
}
