// Package obs is the always-on observability layer for the live
// Concord runtime: per-writer fixed-size ring buffers that record
// timestamped request-lifecycle events without allocating or taking
// shared locks on the hot path, a snapshot API that merges the rings
// into one time-ordered trace, breakdown analysis that attributes each
// request's latency to queueing / service / preemption / dispatcher
// hand-off, exporters for Chrome trace_event JSON (Perfetto) and plain
// text timelines, and a small Prometheus-text metrics registry.
//
// # Ring design
//
// Each writer (one per worker, one per dispatcher shard, one shared by
// client goroutines calling Submit) owns a power-of-two ring of slots.
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

// Lifecycle event kinds, in rough lifecycle order.
const (
	EvSubmit         Kind = 1 + iota // client called Submit
	EvReject                         // never accepted (arg: Status*)
	EvEnqueueCentral                 // dispatcher ingested into central FIFO
	EvDispatch                       // JBSQ push to a worker (arg: worker)
	EvStart                          // first CPU hand-off; goroutine begins
	EvYield                          // slice ran out; request parked at a Poll
	EvRequeue                        // worker re-submitted a preempted request
	EvResume                         // subsequent CPU hand-off
	EvExpire                         // completed with ErrDeadlineExceeded
	EvAbort                          // completed with ErrServerStopped
	EvComplete                       // completed normally (arg: Status*)

	// Wire-path events recorded by the network frontend (writer
	// WriterNet). FrameRead/Parsed are stamped before the request has a
	// runtime id, so the frontend carries the timestamps on the request
	// and the runtime records them retroactively at Submit (RecordAt).
	EvFrameRead   // frame (or text line) read off the socket
	EvParsed      // frame decoded into a request
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
// WriterNet sits far outside the dispatcher-shard id space -(s+2), which
// grows downward from -3.
const (
	WriterDispatcher = -1
	WriterClient     = -2
	WriterNet        = -(1 << 20) // network frontend (reader loops + flushers)
)

// DispatcherWriter returns the writer id for dispatcher shard s. Shard
// 0 is WriterDispatcher, so single-shard servers keep the historical
// id; shard s ≥ 1 maps to -(s+2), below WriterClient. Each shard's
// dispatcher goroutine is a distinct writer and must own its own ring.
func DispatcherWriter(s int) int {
	if s == 0 {
		return WriterDispatcher
	}
	return -(s + 2)
}

// dispatcherShard inverts DispatcherWriter; -1 when the writer is not a
// dispatcher.
func dispatcherShard(writer int) int {
	switch {
	case writer == WriterDispatcher:
		return 0
	case writer <= -3 && writer != WriterNet:
		return -writer - 2
	}
	return -1
}

// Event is one decoded lifecycle event.
type Event struct {
	TS   time.Duration // since the tracer's epoch
	Req  uint64
	Kind Kind
	Ring int   // writer: worker index, WriterDispatcher, or WriterClient
	Arg  int64 // kind-specific: worker id, status code, preemptions so far
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

// Tracer owns the per-writer rings. Create one with NewTracer (or
// NewTracerSharded for a multi-shard server) and hand it to
// live.Options.Tracer; Workers and Shards must match the server's.
type Tracer struct {
	epoch   time.Time
	workers int
	shards  int
	rings   []*ring // workers, then one per dispatcher shard, then client, then net
}

// NewTracer builds a tracer for a single-dispatcher server with the
// given worker count. ringSize is the per-writer capacity in events,
// rounded up to a power of two; <=0 selects the default 4096.
func NewTracer(workers, ringSize int) *Tracer {
	return NewTracerSharded(workers, 1, ringSize)
}

// NewTracerSharded builds a tracer for a server with the given worker
// and dispatcher-shard counts: every shard's dispatcher is its own
// writer (the rings are strictly single-writer).
func NewTracerSharded(workers, shards, ringSize int) *Tracer {
	if workers < 1 {
		workers = 1
	}
	if shards < 1 {
		shards = 1
	}
	if ringSize <= 0 {
		ringSize = 4096
	}
	size := 1
	for size < ringSize {
		size <<= 1
	}
	t := &Tracer{epoch: time.Now(), workers: workers, shards: shards}
	t.rings = make([]*ring, workers+shards+2)
	for i := range t.rings {
		t.rings[i] = &ring{slots: make([]slot, size)}
	}
	return t
}

// Workers returns the worker count the tracer was built for.
func (t *Tracer) Workers() int { return t.workers }

// Shards returns the dispatcher-shard count the tracer was built for.
func (t *Tracer) Shards() int { return t.shards }

// ringFor maps a writer id to its ring index.
func (t *Tracer) ringFor(writer int) *ring {
	if writer >= 0 {
		return t.rings[writer]
	}
	switch writer {
	case WriterClient:
		return t.rings[t.workers+t.shards]
	case WriterNet:
		return t.rings[t.workers+t.shards+1]
	}
	return t.rings[t.workers+dispatcherShard(writer)]
}

// Record appends one event to the writer's ring. It never allocates and
// never blocks: one fetch-add, a load and a compare-and-swap to claim
// the slot, and four atomic stores. An event whose slot another writer
// is still filling is dropped.
func (t *Tracer) Record(writer int, kind Kind, req uint64, arg int64) {
	t.ringFor(writer).record(int64(time.Since(t.epoch)), kind, req, arg)
}

// RecordAt is Record with an explicit wall-clock timestamp, for events
// observed before the request had a runtime id (the network frontend
// stamps frame-read/parse times on the request and the runtime records
// them retroactively at Submit). Snapshot sorts by timestamp, so
// out-of-order recording is fine.
func (t *Tracer) RecordAt(writer int, kind Kind, req uint64, arg int64, at time.Time) {
	t.ringFor(writer).record(int64(at.Sub(t.epoch)), kind, req, arg)
}

// Snapshot copies every currently valid event out of every ring and
// returns them merged in timestamp order. It is safe to call while
// writers are active; events overwritten mid-copy are dropped.
func (t *Tracer) Snapshot() []Event {
	var out []Event
	for ri, r := range t.rings {
		writer := ri
		switch {
		case ri == t.workers+t.shards+1:
			writer = WriterNet
		case ri == t.workers+t.shards:
			writer = WriterClient
		case ri >= t.workers:
			writer = DispatcherWriter(ri - t.workers)
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
	sort.SliceStable(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
}
