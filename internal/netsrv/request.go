// The wire-level request object both codecs fill, and the KV handler
// that executes it on the live runtime. A Request is pooled: serve takes
// one per request read, and whichever goroutine writes its response
// recycles it after the write. Results — the handler's, the error
// mapping's, or the codec's own answer for a request that never reaches
// the runtime — are written into the Request rather than returned through
// live.Response.Payload, so completing a request allocates nothing.
package netsrv

import (
	"fmt"
	"time"

	"concord/internal/kv"
	"concord/internal/live"
	"concord/internal/proto"
)

// Request is one parsed command flowing through the runtime. Key and
// Val alias the connection's read buffer (pooled frame buffer in binary
// mode, bufio window in text mode): valid until the response is
// encoded, never after — the connection's window slot, held from before
// the read until after the write, is what keeps them so.
type Request struct {
	Op   byte   // proto.Op*
	ID   uint64 // binary request id; 0 in text mode
	Key  []byte
	Val  []byte
	Spin time.Duration // OpSpin only, decoded at ingest
	// Class is the request's SLO class, stamped from the wire (v2
	// frame class byte in binary mode, @class token in text mode);
	// ClassStandard when the client didn't declare one.
	Class live.SLOClass

	// Result, written by KVHandler.Handle (or the error mapping for
	// requests the runtime failed):
	Status byte   // proto.St*
	Out    []byte // StValue payload
	Count  uint64 // StCount payload
	errMsg string // StErr / StBadRequest detail

	// obsOn is the text connection's OBS ON toggle at the time the line
	// was read; trailer is the |OBS breakdown rendered for it at
	// completion, the only place that sees the live.Response.
	obsOn   bool
	trailer string

	// frame pins the pooled read buffer Key/Val alias in binary mode;
	// released when the response is encoded.
	frame proto.Frame

	// Wire-path observability, all readings of the runtime's clock
	// (live.NowStamp): readTS and parsedTS are stamped only when the
	// server traces (Options.Tracer set), zero otherwise; liveID and
	// doneTS are set for every request the runtime answered.
	readTS   live.Stamp // frame (or line) read off the socket
	parsedTS live.Stamp // decoded into this Request
	liveID   uint64     // runtime request id, for flush-event attribution
	doneTS   live.Stamp // completion stamp (live.Response.Done)
}

// NetTimes implements live.NetTimed: the runtime records the wire
// stamps retroactively at Submit, once the request has an id.
func (r *Request) NetTimes() (read, parsed live.Stamp) {
	return r.readTS, r.parsedTS
}

// reset clears the request for reuse, releasing its frame if held.
func (r *Request) reset() {
	r.frame.Release()
	*r = Request{}
}

// ServiceHint estimates the request's service time for SRPT ordering
// (live.Hinted). Point ops are a few µs of lock-bracketed map work;
// SCAN walks the whole store; SPIN declares its duration outright. The
// estimates only need the right relative order — a wrong hint reorders
// the queue but never affects correctness.
func (r *Request) ServiceHint() time.Duration {
	switch r.Op {
	case proto.OpSpin:
		return r.Spin
	case proto.OpScan:
		return 500 * time.Microsecond
	default: // GET, PUT, DEL
		return 2 * time.Microsecond
	}
}

// pointOp reports a GET, PUT or DEL: one no-preempt section of map
// work, which never yields.
func (r *Request) pointOp() bool {
	return r.Op == proto.OpGet || r.Op == proto.OpPut || r.Op == proto.OpDel
}

// SLOClass hands the runtime the class the client declared on the wire
// (live.SLOClassed). Unlike the old op-derived scheduling class, the
// SLO class is the *tenant's* declaration, not a property of the
// operation: the same GET is critical from one caller and sheddable
// from another. It drives admission (critical reserve, sheddable
// shedding), the cascade queue's tier, per-class quanta, and per-class
// tail accounting.
func (r *Request) SLOClass() live.SLOClass { return r.Class }

// decodeOp validates the opcode and decodes op-specific fields (SPIN's
// duration rides in the key). It reports false for frames that can
// never execute; the stream itself is still synced.
func (r *Request) decodeOp() bool {
	switch r.Op {
	case proto.OpGet, proto.OpPut, proto.OpDel, proto.OpScan:
		return true
	case proto.OpSpin:
		us, ok := proto.DecodeSpin(r.Key)
		if !ok {
			r.errMsg = "bad SPIN duration"
			return false
		}
		r.Spin = time.Duration(us) * time.Microsecond
		return true
	default:
		r.errMsg = fmt.Sprintf("unknown op 0x%02x", r.Op)
		return false
	}
}

// appendText renders the text-protocol response line (without the
// trailing newline), appending to b — a connection's reused write buffer
// (the old per-response fmt.Fprintf path allocated on every response;
// see EXPERIMENTS.md).
func (r *Request) appendText(b []byte) []byte {
	switch r.Status {
	case proto.StOK:
		return append(b, "OK"...)
	case proto.StValue:
		b = append(b, "VALUE "...)
		return append(b, r.Out...)
	case proto.StNotFound:
		return append(b, "NOTFOUND"...)
	case proto.StCount:
		b = append(b, "COUNT "...)
		return appendUint(b, r.Count)
	case proto.StErr, proto.StBadRequest:
		b = append(b, "ERR "...)
		return append(b, r.errMsg...)
	default: // DEADLINE, OVERLOADED, STOPPED, TOOLARGE — single tokens
		return append(b, proto.StatusString(r.Status)...)
	}
}

// appendUint is strconv.AppendUint without the import noise.
func appendUint(b []byte, v uint64) []byte {
	if v == 0 {
		return append(b, '0')
	}
	var tmp [20]byte
	i := len(tmp)
	for v > 0 {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
	}
	return append(b, tmp[i:]...)
}

// statusForErr maps a runtime failure onto the wire status the client
// branches on. The text tokens for these statuses are the protocol's
// historical single-token failures (DEADLINE, OVERLOADED, STOPPED,
// SHED). SHED is deliberately distinct from OVERLOADED: overloaded
// invites a retry after backoff, shed tells a sheddable client its
// class is being dropped by policy while the server still has room for
// protected traffic.
func statusForErr(err error) (byte, string) {
	switch {
	case err == live.ErrDeadlineExceeded:
		return proto.StDeadline, ""
	case err == live.ErrShed:
		return proto.StShed, ""
	case err == live.ErrQueueFull:
		return proto.StOverloaded, ""
	case err == live.ErrServerStopped:
		return proto.StStopped, ""
	default:
		return proto.StErr, err.Error()
	}
}

// KVHandler adapts the store to the live runtime's Handler interface,
// writing results into the pooled *Request payload.
type KVHandler struct {
	Store *kv.Store
	// ScanBatch is how many keys a SCAN visits between preemption
	// polls. Default 256.
	ScanBatch int
}

func (h *KVHandler) Setup()          {}
func (h *KVHandler) SetupWorker(int) {}

func (h *KVHandler) Handle(ctx *live.Ctx, payload any) (any, error) {
	r := payload.(*Request)
	switch r.Op {
	case proto.OpGet:
		// Point queries hold the store lock: bracket them with a
		// no-preempt section (the paper's 4-line lock counter, §3.1).
		ctx.BeginNoPreempt()
		v, ok := h.Store.Get(r.Key)
		ctx.EndNoPreempt()
		if !ok {
			r.Status = proto.StNotFound
			return nil, nil
		}
		// v is the store's internal slice: safe to hold until encode
		// because Put replaces values wholesale, never mutates in place.
		r.Status, r.Out = proto.StValue, v
	case proto.OpPut:
		ctx.BeginNoPreempt()
		h.Store.Put(r.Key, r.Val)
		ctx.EndNoPreempt()
		r.Status = proto.StOK
	case proto.OpDel:
		ctx.BeginNoPreempt()
		ok := h.Store.Delete(r.Key)
		ctx.EndNoPreempt()
		if !ok {
			r.Status = proto.StNotFound
			return nil, nil
		}
		r.Status = proto.StOK
	case proto.OpScan:
		// Range queries iterate in batches, polling for preemption
		// between batches so a database-wide scan yields cooperatively.
		batch := h.ScanBatch
		if batch <= 0 {
			batch = 256
		}
		n := uint64(0)
		cursor := []byte(nil)
		for {
			cursor = h.Store.ScanBatch(cursor, batch, func(_, _ []byte) bool {
				n++
				return true
			})
			if cursor == nil {
				r.Status, r.Count = proto.StCount, n
				return nil, nil
			}
			ctx.Poll()
		}
	case proto.OpSpin:
		ctx.Spin(r.Spin)
		r.Status = proto.StOK
	default:
		return nil, fmt.Errorf("unknown op 0x%02x", r.Op)
	}
	return nil, nil
}
