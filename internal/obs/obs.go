// Package obs is the always-on observability layer for the live
// Concord runtime: per-writer fixed-size ring buffers that record
// request-lifecycle events, each stamped by its writer, without
// allocating, taking shared locks or reading a clock on the hot path, a
// snapshot API that merges the rings into one time-ordered trace,
// breakdown analysis that attributes each request's latency to queueing
// / service / preemption / dispatcher hand-off, exporters for Chrome
// trace_event JSON (Perfetto) and plain text timelines, and a small
// Prometheus-text metrics registry.
//
// # Ring design
//
// Each writer (one per worker, one for the dispatcher, one shared by
// client goroutines calling Submit, one for the network frontend) owns a power-of-two ring of slots.
// A writer claims a ticket with one atomic fetch-add, claims the slot by
// moving its sequence from an earlier lap's published (even) value to
// this ticket's odd value (write in progress) with one compare-and-swap,
// stores the payload, then publishes the slot with the even sequence
// value 2*(ticket+1). A ring shared by several writers (the client ring)
// can lap a slow writer; the claim makes the lapping writer drop its
// event instead of filling and publishing a slot the slow writer is
// still filling, and makes a writer that was itself lapped drop its
// event instead of overwriting a newer one. Readers never block
// writers: Snapshot validates each slot's sequence before and after
// copying it and simply drops slots that were concurrently overwritten.
// All slot accesses are atomic, so the scheme is race-detector clean.
// When the runtime is built with tracing disabled (a nil *Tracer), the
// cost at every instrumentation point is one predictable nil-check
// branch.
package obs

import (
	"sort"
	"sync/atomic"
	"time"
)

// Kind identifies one request lifecycle transition.
type Kind uint8

// Lifecycle event kinds, in lifecycle order: the order Snapshot gives
// one request's events that share a stamp (see Event.order).
const (
	// Wire-path events recorded by the network frontend (writer
	// WriterNet). FrameRead/Parsed are stamped before the request has a
	// runtime id, so the frontend carries the stamps on the request and
	// the runtime records them retroactively at Submit.
	EvFrameRead Kind = 1 + iota // frame (or text line) read off the socket
	EvParsed                    // frame decoded into a request

	EvSubmit         // client called Submit
	EvEnqueueCentral // dispatcher ingested into central FIFO
	EvDispatch       // JBSQ push to a worker (arg: worker)
	EvStart          // first CPU hand-off; goroutine begins
	EvYield          // slice ran out; request parked at a Poll (arg: preemptions so far)
	EvRequeue        // worker re-submitted a preempted request (arg: preemptions so far)
	EvResume         // subsequent CPU hand-off (arg: preemptions so far)
	EvExpire         // completed with ErrDeadlineExceeded
	EvAbort          // completed with ErrServerStopped
	EvComplete       // completed normally (arg: Status*)
	EvReject         // never accepted (arg: Status*)

	EvFlushQueued // completion handed to the connection flusher
	EvFlushed     // response bytes written to the socket (arg: batch size)

	kindMax
)

var kindNames = [kindMax]string{
	EvSubmit:         "submit",
	EvReject:         "reject",
	EvEnqueueCentral: "enqueue-central",
	EvDispatch:       "dispatch",
	EvStart:          "start",
	EvYield:          "yield",
	EvRequeue:        "requeue",
	EvResume:         "resume",
	EvExpire:         "expire",
	EvAbort:          "abort",
	EvComplete:       "complete",
	EvFrameRead:      "frame-read",
	EvParsed:         "parsed",
	EvFlushQueued:    "flush-queued",
	EvFlushed:        "flushed",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// Terminal reports whether k ends a request's lifecycle.
func (k Kind) Terminal() bool {
	switch k {
	case EvReject, EvExpire, EvAbort, EvComplete:
		return true
	}
	return false
}

// Status codes carried in the arg of terminal events.
const (
	StatusOK int64 = iota
	StatusDeadline
	StatusStopped
	StatusError
	StatusQueueFull
	// StatusShed marks a sheddable request dropped by class admission
	// control (live.ErrShed) — shed by policy, not out of room.
	StatusShed
)

// Writer ids for the non-worker rings. Worker w writes ring w.
const (
	WriterDispatcher = -1
	WriterClient     = -2
	WriterNet        = -(1 << 20) // network frontend (reader loops + flushers)
)

// Event is one decoded lifecycle event.
type Event struct {
	// TS is the stamp the writer supplied: a reading of the writer's
	// clock in nanoseconds from that clock's own origin (the live
	// runtime's nanotime). Only differences between stamps mean anything.
	TS   time.Duration
	Req  uint64
	Kind Kind
	Ring int   // writer: worker index, WriterDispatcher, or WriterClient
	Arg  int64 // kind-specific: worker id, status code, preemptions so far
}

// order places e among one request's events that share its stamp: by
// slice — a yield, requeue or resume by the preemptions it carries (the
// yield that ends slice k−1, its requeue and the resume that starts
// slice k all carry k), the events before the first slice at 0, the
// terminal and flush events after every slice — then by kind.
func (e Event) order() int64 {
	slice := int64(0)
	switch {
	case e.Kind == EvYield || e.Kind == EvRequeue || e.Kind == EvResume:
		slice = e.Arg
	case e.Kind >= EvExpire:
		slice = 1 << 40
	}
	return slice<<8 | int64(e.Kind)
}

const argBits = 56

// slot is one seqlock-protected ring entry. Every field is atomic so
// concurrent reads during an overwrite are races only in the benign,
// detected-and-discarded sense, not in the memory-model sense.
type slot struct {
	seq  atomic.Uint64 // 2*(ticket+1) when published, odd while writing
	ts   atomic.Int64
	req  atomic.Uint64
	meta atomic.Uint64 // kind<<argBits | arg
}

// ring is one writer's buffer. pos is padded onto its own cache line so
// independent writers never false-share their claim counters.
type ring struct {
	pos   atomic.Uint64
	_     [56]byte
	slots []slot
}

func (r *ring) record(ts int64, kind Kind, req uint64, arg int64) {
	r.write(r.pos.Add(1)-1, ts, kind, req, arg)
}

// write stores one event under ticket n.
func (r *ring) write(n uint64, ts int64, kind Kind, req uint64, arg int64) {
	s := &r.slots[n&uint64(len(r.slots)-1)]
	claim := 2*(n+1) - 1 // odd: write in progress
	// Claim only a published slot from an earlier lap: an odd sequence
	// is another writer mid-fill, a later one a lap that overtook this.
	if cur := s.seq.Load(); cur&1 != 0 || cur > claim || !s.seq.CompareAndSwap(cur, claim) {
		return
	}
	s.ts.Store(ts)
	s.req.Store(req)
	s.meta.Store(uint64(kind)<<argBits | uint64(arg)&(1<<argBits-1))
	s.seq.Store(2 * (n + 1)) // publish
}

// Tracer owns the per-writer rings. Create one with NewTracer and hand
// it to live.Options.Tracer; Workers must match the server's. It reads
// no clock: every event carries the stamp its writer took.
type Tracer struct {
	workers int
	rings   []*ring // workers, then dispatcher, client and net
}

// NewTracer builds a tracer for a server with the given worker count.
// ringSize is the per-writer capacity in events, rounded up to a power
// of two; <=0 selects the default 4096.
func NewTracer(workers, ringSize int) *Tracer {
	if workers < 1 {
		workers = 1
	}
	if ringSize <= 0 {
		ringSize = 4096
	}
	size := 1
	for size < ringSize {
		size <<= 1
	}
	t := &Tracer{workers: workers}
	t.rings = make([]*ring, workers+3)
	for i := range t.rings {
		t.rings[i] = &ring{slots: make([]slot, size)}
	}
	return t
}

// Workers returns the worker count the tracer was built for.
func (t *Tracer) Workers() int { return t.workers }

// ringFor maps a writer id to its ring.
func (t *Tracer) ringFor(writer int) *ring {
	switch writer {
	case WriterDispatcher:
		return t.rings[t.workers]
	case WriterClient:
		return t.rings[t.workers+1]
	case WriterNet:
		return t.rings[t.workers+2]
	}
	return t.rings[writer]
}

// Record appends one event, stamped ts, to the writer's ring. ts is a
// reading the writer already holds of its clock (the live runtime's
// nanotime): the tracer reads none, so an event recorded late — the
// frontend's frame-read, recorded once the request has an id — sorts
// where it happened. Record never allocates and never blocks: one
// fetch-add, a load and a compare-and-swap to claim the slot, and four
// atomic stores. An event whose slot another writer is still filling is
// dropped.
func (t *Tracer) Record(writer int, kind Kind, req uint64, arg, ts int64) {
	t.ringFor(writer).record(ts, kind, req, arg)
}

// Snapshot copies every currently valid event out of every ring and
// returns them merged in stamp order. Events that share a stamp sort in
// lifecycle order (Event.order): a placed request's submit,
// enqueue-central, dispatch and start all carry its arrival, and a clock
// that holds a reading (the live runtime's TSC clock holds at its floor
// after the TSC steps) can give a whole slice or a whole park one stamp;
// the order then still walks the request through its lifecycle, and the
// interval between such events is 0 in the trace as in
// live.Response.Breakdown, which read the same stamps. (A requeued
// request's later enqueue-central and dispatch carry no slice and sort
// with the first slice's; Analyze reads only the first enqueue.) Events
// that compare equal keep ring order. It is safe to call while writers
// are active; events overwritten mid-copy are dropped.
func (t *Tracer) Snapshot() []Event {
	var out []Event
	for ri, r := range t.rings {
		writer := ri
		if ri >= t.workers {
			writer = [...]int{WriterDispatcher, WriterClient, WriterNet}[ri-t.workers]
		}
		size := uint64(len(r.slots))
		pos := r.pos.Load()
		start := uint64(0)
		if pos > size {
			start = pos - size
		}
		for n := start; n < pos; n++ {
			s := &r.slots[n&(size-1)]
			want := 2 * (n + 1)
			if s.seq.Load() != want {
				continue
			}
			ts := s.ts.Load()
			req := s.req.Load()
			meta := s.meta.Load()
			if s.seq.Load() != want {
				continue // overwritten while copying
			}
			out = append(out, Event{
				TS:   time.Duration(ts),
				Req:  req,
				Kind: Kind(meta >> argBits),
				Ring: writer,
				Arg:  int64(meta<<(64-argBits)) >> (64 - argBits),
			})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		return a.TS < b.TS || a.TS == b.TS && a.order() < b.order()
	})
	return out
}
