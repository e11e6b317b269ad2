// Binary-protocol client: pipelined frames over a small connection
// fleet. Each connection keeps -pipeline requests in flight, identified
// by slot index (the wire request id), with one reader goroutine
// matching out-of-order responses back to their launch records — the
// client half of the massive-fan-in path in internal/netsrv.
package main

import (
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"concord/internal/obs"
	"concord/internal/proto"
)

// binFleet is the pool of pipelined binary connections. A free slot is
// required to launch a request, so conns×depth bounds in-flight exactly
// like the text pool bounds it at conns×1.
type binFleet struct {
	conns []*binConn
	avail chan *binSlot // capacity conns×depth; releases never block
	lost  atomic.Int64  // slots retired by broken connections
	total int
	wg    sync.WaitGroup

	lg    *Log
	hist  *obs.QuantileSketch
	fails *failures
}

type binConn struct {
	fleet  *binFleet
	conn   net.Conn
	mu     sync.Mutex // guards slot state and broken
	wmu    sync.Mutex // serializes frame writes; never held with mu
	wbuf   []byte
	slots  []binSlot
	broken bool
}

// binSlot is one in-flight request's bookkeeping; its index within the
// connection is the wire request id, so response matching is an array
// lookup.
type binSlot struct {
	bc    *binConn
	id    uint64
	o     op
	start time.Time
	busy  bool
}

func dialBinary(addr string, nconns, depth int, lg *Log, hist *obs.QuantileSketch, fails *failures) (*binFleet, error) {
	f := &binFleet{
		total: nconns * depth,
		avail: make(chan *binSlot, nconns*depth),
		lg:    lg,
		hist:  hist,
		fails: fails,
	}
	for i := 0; i < nconns; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		bc := &binConn{fleet: f, conn: c, slots: make([]binSlot, depth)}
		for j := range bc.slots {
			bc.slots[j] = binSlot{bc: bc, id: uint64(j)}
			f.avail <- &bc.slots[j]
		}
		f.conns = append(f.conns, bc)
		f.wg.Add(1)
		go bc.readLoop()
	}
	return f, nil
}

// launch blocks until a slot is free, then writes one pipelined frame.
// The response is recorded by the owning connection's reader; a write
// failure is recorded here and the slot retired.
func (f *binFleet) launch(o op) {
	if int(f.lost.Load()) >= f.total {
		log.Fatal("all binary connections broken")
	}
	s := <-f.avail
	bc := s.bc
	bc.mu.Lock()
	if bc.broken {
		bc.mu.Unlock()
		f.fails.other.Add(1)
		f.lost.Add(1)
		return
	}
	s.o = o
	s.start = time.Now()
	s.busy = true
	bc.mu.Unlock()

	bc.wmu.Lock()
	bc.wbuf = bc.wbuf[:0]
	// AppendClassRequest canonicalizes: class 0 (the classless default)
	// still rides the v1 frame, so un-classed runs are byte-identical.
	if o.code == proto.OpSpin {
		bc.wbuf = proto.AppendSpinClassRequest(bc.wbuf, o.slo, s.id, o.spinUS)
	} else {
		bc.wbuf = proto.AppendClassRequest(bc.wbuf, o.code, o.slo, s.id, o.key, o.val)
	}
	_, err := bc.conn.Write(bc.wbuf)
	bc.wmu.Unlock()
	if err != nil {
		bc.mu.Lock()
		bc.broken = true
		s.busy = false
		bc.mu.Unlock()
		f.fails.record(err, "")
		f.lost.Add(1)
	}
}

func (bc *binConn) readLoop() {
	f := bc.fleet
	defer f.wg.Done()
	rr := proto.NewRespReader(bc.conn, 1<<15)
	for {
		resp, err := rr.Next()
		if err != nil {
			bc.fail(err)
			return
		}
		idx := int(resp.ID)
		if idx < 0 || idx >= len(bc.slots) {
			bc.fail(fmt.Errorf("response id %d out of range", resp.ID))
			return
		}
		s := &bc.slots[idx]
		bc.mu.Lock()
		if !s.busy {
			bc.mu.Unlock()
			bc.fail(fmt.Errorf("duplicate response for id %d", resp.ID))
			return
		}
		o, start := s.o, s.start
		s.busy = false
		bc.mu.Unlock()
		lat := time.Since(start)
		switch resp.Status {
		case proto.StOK, proto.StValue, proto.StNotFound, proto.StCount:
			f.lg.Add(Record{
				Class:     o.class,
				ServiceUS: o.serviceUS,
				SojournUS: float64(lat) / float64(time.Microsecond),
			})
			f.hist.Observe(int64(lat))
		default:
			f.fails.record(nil, proto.StatusString(resp.Status))
		}
		f.avail <- s
	}
}

// fail marks the connection broken and retires its in-flight slots as
// failures; free slots still in avail are retired lazily at their next
// launch. A clean EOF with nothing in flight (shutdown) records nothing.
func (bc *binConn) fail(err error) {
	f := bc.fleet
	bc.mu.Lock()
	bc.broken = true
	nbusy := 0
	for i := range bc.slots {
		if bc.slots[i].busy {
			bc.slots[i].busy = false
			nbusy++
		}
	}
	bc.mu.Unlock()
	if nbusy == 0 && err == io.EOF {
		return
	}
	for i := 0; i < nbusy; i++ {
		f.fails.record(err, "")
	}
	f.lost.Add(int64(nbusy))
}

// drain waits for every live slot to come home — i.e. for all in-flight
// responses. Slots can be retired concurrently by breaking connections,
// so the target is re-checked on a timeout rather than waited for
// blindly.
func (f *binFleet) drain() {
	collected := 0
	for collected < f.total-int(f.lost.Load()) {
		select {
		case <-f.avail:
			collected++
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// close tears down the fleet: connections first, then the readers they
// unblock.
func (f *binFleet) close() {
	for _, bc := range f.conns {
		bc.conn.Close()
	}
	f.wg.Wait()
}
