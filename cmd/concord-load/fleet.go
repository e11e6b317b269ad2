// The client connection loop, one for both protocols: a fleet of
// connections, each with a window of request slots (1 for text,
// -pipeline for binary) and one reader goroutine matching replies back
// to their slots — the client half of internal/netsrv's serve(conn,
// codec, window). A slot's index within its connection is the request
// id a binary frame carries; text answers in request order, so its one
// slot is always id 0.
package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"concord/internal/obs"
	"concord/internal/proto"
)

// codec is one protocol's client half.
type codec interface {
	// encode appends o's request, tagged with slot id where the
	// protocol carries one, to b.
	encode(b []byte, o op, id uint64) []byte
	// read returns the next reply: the slot it answers, its status
	// token (OK, VALUE, SHED, ...) and the body of its |OBS trailer, if
	// it has one.
	read() (id uint64, status, trailer string, err error)
}

type textCodec struct{ br *bufio.Reader }

func (textCodec) encode(b []byte, o op, _ uint64) []byte {
	return append(append(b, o.line...), '\n')
}

func (c textCodec) read() (uint64, string, string, error) {
	line, err := c.br.ReadString('\n')
	if err != nil {
		return 0, "", "", err
	}
	line = strings.TrimSpace(line)
	var trailer string
	if i := strings.LastIndex(line, " |OBS "); i >= 0 {
		line, trailer = line[:i], line[i+len(" |OBS "):]
	}
	status, _, _ := strings.Cut(line, " ")
	return 0, status, trailer, nil
}

type binaryCodec struct{ rr *proto.RespReader }

func (binaryCodec) encode(b []byte, o op, id uint64) []byte {
	// Class 0 (the classless default) still rides the v1 frame, so
	// un-classed runs are byte-identical.
	if o.code == proto.OpSpin {
		return proto.AppendSpinClassRequest(b, o.slo, id, o.spinUS)
	}
	return proto.AppendClassRequest(b, o.code, o.slo, id, o.key, o.val)
}

func (c binaryCodec) read() (uint64, string, string, error) {
	r, err := c.rr.Next()
	return r.ID, proto.StatusString(r.Status), "", err
}

// fleet is the generator's connection pool. A free slot is required to
// launch a request, so conns×window bounds in-flight: exhaustion means
// offered load exceeds capacity and shows up as queueing at the
// generator, like a saturated NIC. One goroutine launches; the readers
// record.
type fleet struct {
	lg    *Log
	hist  obs.QuantileSketch
	fails failures

	conns    []*client
	avail    chan *slot     // capacity conns×window; releases never block
	lost     int            // slots retired by broken connections; launcher-only
	wbuf     []byte         // launcher-only
	inflight sync.WaitGroup // one count per launched request
	readers  sync.WaitGroup
}

// client is one connection of the fleet.
type client struct {
	conn   net.Conn
	codec  codec
	mu     sync.Mutex // guards slot state and broken
	slots  []slot
	broken bool
}

// slot is one in-flight request's bookkeeping.
type slot struct {
	c     *client
	id    uint64
	o     op
	start time.Time
	busy  bool
}

// dial opens n connections of window slots each, speaking binary frames
// or text lines; obsOn opts every text connection into |OBS trailers.
func (f *fleet) dial(addr string, n, window int, binary, obsOn bool) error {
	f.avail = make(chan *slot, n*window)
	for i := 0; i < n; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return fmt.Errorf("dial %s: %w", addr, err)
		}
		c := &client{conn: conn, slots: make([]slot, window)}
		f.conns = append(f.conns, c)
		if binary {
			c.codec = binaryCodec{proto.NewRespReader(conn, 1<<15)}
		} else {
			c.codec = textCodec{bufio.NewReader(conn)}
		}
		if obsOn {
			_, err := conn.Write([]byte("OBS ON\n"))
			var status string
			if err == nil {
				_, status, _, err = c.codec.read()
			}
			if err != nil || status != "OK" {
				return fmt.Errorf("-breakdown needs a server started with -obs: OBS ON replied %q, %v", status, err)
			}
		}
		for j := range c.slots {
			c.slots[j] = slot{c: c, id: uint64(j)}
			f.avail <- &c.slots[j]
		}
		f.readers.Add(1)
		go f.read(c)
	}
	return nil
}

// launch takes a free slot, stamps the start and writes o. It blocks
// while every slot is in flight and retires the free slots of broken
// connections as it meets them; once every slot is retired it returns
// an error and o is not launched.
func (f *fleet) launch(o op) error {
	for f.lost < cap(f.avail) {
		s := <-f.avail
		c := s.c
		c.mu.Lock()
		if c.broken {
			c.mu.Unlock()
			f.lost++
			continue
		}
		s.o, s.start, s.busy = o, time.Now(), true
		c.mu.Unlock()
		f.inflight.Add(1)
		f.wbuf = c.codec.encode(f.wbuf[:0], o, s.id)
		if _, err := c.conn.Write(f.wbuf); err != nil {
			f.fail(c, err)
		}
		return nil
	}
	return errors.New("every connection is broken")
}

// read is c's reader: it matches each reply to its slot, records it
// and frees the slot, until the connection breaks.
func (f *fleet) read(c *client) {
	defer f.readers.Done()
	for {
		id, status, trailer, err := c.codec.read()
		if err == nil && id >= uint64(len(c.slots)) {
			err = fmt.Errorf("reply for slot %d of %d", id, len(c.slots))
		}
		if err != nil {
			f.fail(c, err)
			return
		}
		s := &c.slots[id]
		c.mu.Lock()
		busy, o, start := s.busy, s.o, s.start
		s.busy = false
		c.mu.Unlock()
		if !busy {
			f.fail(c, fmt.Errorf("reply for idle slot %d", id))
			return
		}
		f.record(o, time.Since(start), status, trailer)
		f.avail <- s
		f.inflight.Done()
	}
}

// record files one reply: a success in the log and the latency sketch,
// anything else with the failures.
func (f *fleet) record(o op, lat time.Duration, status, trailer string) {
	switch status {
	case "OK", "VALUE", "NOTFOUND", "COUNT":
	default:
		f.fails.record(nil, status)
		return
	}
	r := Record{
		Class:     o.class,
		ServiceUS: o.serviceUS,
		SojournUS: float64(lat) / float64(time.Microsecond),
	}
	if trailer != "" {
		r = withBreakdown(r, trailer)
	}
	f.lg.Add(r)
	f.hist.Observe(int64(lat))
}

// fail marks c broken, closes it and retires its in-flight requests as
// failures; its free slots are retired as launch meets them.
func (f *fleet) fail(c *client, err error) {
	c.mu.Lock()
	c.broken = true
	var retired []*slot
	for i := range c.slots {
		if c.slots[i].busy {
			c.slots[i].busy = false
			retired = append(retired, &c.slots[i])
		}
	}
	c.mu.Unlock()
	c.conn.Close() // unblocks the reader, which finds nothing left in flight
	for _, s := range retired {
		f.fails.record(err, "")
		f.avail <- s
		f.inflight.Done()
	}
}

// drain waits until every launched request is answered or retired.
func (f *fleet) drain() { f.inflight.Wait() }

// close tears down the fleet: connections first, then the readers they
// unblock.
func (f *fleet) close() {
	for _, c := range f.conns {
		c.conn.Close()
	}
	f.readers.Wait()
}
