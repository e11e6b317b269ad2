// Latency-breakdown attribution: turn a merged event stream into
// per-request component times (the paper's Table-1 decomposition).
package obs

import (
	"sort"
	"time"
)

// Breakdown attributes one request's end-to-end latency to lifecycle
// components. For a request with a full event sequence the components
// partition the total exactly:
//
//	Total = Ingress + Handoff + Queue + Service + Preempted + Egress
//
// Ingress is frame-read → submit (wire decode plus the pipelined submit
// path; zero for requests that never crossed the network frontend),
// Handoff is submit → first enqueue-central (dispatcher ingest delay),
// Queue is first enqueue-central → first CPU hand-off (central + JBSQ
// queueing), Service is the sum of running intervals, Preempted is the
// time parked between a yield and the next resume (requeue plus
// re-queueing) including a final parked interval before an abort or
// expiry, and Egress is terminal event → response flushed to the socket
// (zero when the snapshot holds no EvFlushed for the request).
type Breakdown struct {
	Req         uint64
	SubmitTS    time.Duration // first event's timestamp (tracer epoch)
	EndTS       time.Duration // last event's timestamp (flush if recorded, else terminal)
	IngressUS   float64
	HandoffUS   float64
	QueueUS     float64
	ServiceUS   float64
	PreemptedUS float64
	EgressUS    float64
	Preemptions int
	Outcome     Kind  // EvComplete, EvExpire, EvAbort, or EvReject
	Status      int64 // Status* arg of the terminal event
	Partial     bool  // ring wraparound lost this request's first event
}

// TotalUS is the end-to-end latency derived from the event stream.
func (b Breakdown) TotalUS() float64 {
	return float64(b.EndTS-b.SubmitTS) / float64(time.Microsecond)
}

// SumUS is the sum of the six components; for a non-partial request it
// equals TotalUS up to float rounding.
func (b Breakdown) SumUS() float64 {
	return b.IngressUS + b.HandoffUS + b.QueueUS + b.ServiceUS + b.PreemptedUS + b.EgressUS
}

// OutcomeString renders the terminal state for reports.
func (b Breakdown) OutcomeString() string {
	switch b.Outcome {
	case EvComplete:
		if b.Status == StatusOK {
			return "ok"
		}
		return "error"
	case EvExpire:
		return "expired"
	case EvAbort:
		return "aborted"
	case EvReject:
		if b.Status == StatusQueueFull {
			return "rejected-full"
		}
		return "rejected-stopped"
	}
	return "in-flight"
}

// group collects each request's events in time order, preserving the
// merged stream's ordering, and returns request ids ordered by the
// request's last event.
func group(events []Event) (map[uint64][]Event, []uint64) {
	byReq := make(map[uint64][]Event)
	for _, e := range events {
		byReq[e.Req] = append(byReq[e.Req], e)
	}
	ids := make([]uint64, 0, len(byReq))
	for id := range byReq {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		ei, ej := byReq[ids[i]], byReq[ids[j]]
		li, lj := ei[len(ei)-1].TS, ej[len(ej)-1].TS
		if li != lj {
			return li < lj
		}
		return ids[i] < ids[j]
	})
	return byReq, ids
}

// analyzeOne walks one request's events (time-ordered) through the
// lifecycle state machine. Requests without a terminal event return
// ok=false. A terminal event does not end the walk: the frontend's
// EvFlushed trails it and extends the request with the egress phase.
func analyzeOne(id uint64, evs []Event) (Breakdown, bool) {
	b := Breakdown{Req: id, SubmitTS: evs[0].TS,
		Partial: evs[0].Kind != EvSubmit && evs[0].Kind != EvFrameRead}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	var (
		frameTS    time.Duration
		hasFrame   bool
		startTS    = evs[0].TS // EvSubmit timestamp once seen
		enqueueTS  time.Duration
		hasEnqueue bool
		runStart   time.Duration
		running    bool
		firstRun   bool
		yieldTS    time.Duration
		yielded    bool
		termTS     time.Duration
		terminal   bool
	)
	for _, e := range evs {
		switch e.Kind {
		case EvFrameRead:
			if !hasFrame {
				hasFrame, frameTS = true, e.TS
			}
		case EvSubmit:
			startTS = e.TS
			if hasFrame {
				b.IngressUS = us(e.TS - frameTS)
			}
		case EvEnqueueCentral:
			if !hasEnqueue {
				hasEnqueue = true
				enqueueTS = e.TS
				b.HandoffUS = us(e.TS - startTS)
			}
		case EvStart, EvResume:
			if !firstRun {
				firstRun = true
				if hasEnqueue {
					b.QueueUS = us(e.TS - enqueueTS)
				}
			} else if yielded {
				b.PreemptedUS += us(e.TS - yieldTS)
			}
			running, yielded = true, false
			runStart = e.TS
		case EvYield:
			if running {
				b.ServiceUS += us(e.TS - runStart)
				running = false
			}
			yielded, yieldTS = true, e.TS
			b.Preemptions++
		case EvComplete, EvExpire, EvAbort, EvReject:
			if terminal {
				break
			}
			b.Outcome, b.Status, b.EndTS = e.Kind, e.Arg, e.TS
			switch {
			case running:
				b.ServiceUS += us(e.TS - runStart)
			case yielded:
				b.PreemptedUS += us(e.TS - yieldTS)
			case hasEnqueue && !firstRun:
				// Died queued (expired or aborted before first run).
				b.QueueUS = us(e.TS - enqueueTS)
			}
			running, yielded = false, false
			terminal, termTS = true, e.TS
		case EvFlushed:
			if terminal && b.EgressUS == 0 {
				b.EgressUS = us(e.TS - termTS)
				b.EndTS = e.TS
			}
		}
	}
	return b, terminal
}

// Analyze derives per-request breakdowns from a time-ordered event
// stream (as returned by Tracer.Snapshot). Requests still in flight —
// no terminal event in the snapshot — are omitted. Results are ordered
// by completion time.
func Analyze(events []Event) []Breakdown {
	byReq, ids := group(events)
	out := make([]Breakdown, 0, len(ids))
	for _, id := range ids {
		if b, ok := analyzeOne(id, byReq[id]); ok {
			out = append(out, b)
		}
	}
	return out
}
