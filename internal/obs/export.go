// Exporters: Chrome trace_event JSON (loadable in Perfetto or
// chrome://tracing) and plain-text per-request timelines.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// netTID is the network frontend's Chrome thread id, far above any
// worker's.
const netTID = 1 << 17

// tid maps a writer id onto a stable Chrome thread id: clients/ingress
// on 0, the dispatcher on 1, worker w on 2+w, and the network frontend
// on netTID.
func tid(writer int) int {
	switch writer {
	case WriterClient:
		return 0
	case WriterDispatcher:
		return 1
	case WriterNet:
		return netTID
	default:
		return 2 + writer
	}
}

func tidName(writer int) string {
	switch writer {
	case WriterClient:
		return "clients"
	case WriterDispatcher:
		return "dispatcher"
	case WriterNet:
		return "net"
	default:
		return fmt.Sprintf("worker %d", writer)
	}
}

// chromeEvent is one trace_event entry. Field order is fixed by the
// struct so the export is byte-deterministic for a given event stream
// (json.Marshal also sorts the Args map keys).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // Event.TS in microseconds
	Dur  *float64       `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	ID   *uint64        `json:"id,omitempty"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

const chromePID = 1

// WriteChromeTrace renders a time-ordered event stream (from
// Tracer.Snapshot) as Chrome trace_event JSON. Each request becomes a
// nestable async span ("b"/"e") keyed by its id, each running interval
// becomes a complete slice ("X") on the executing worker's thread, and
// every raw event is also emitted as a thread-scoped instant so the
// full lifecycle is visible in Perfetto.
func WriteChromeTrace(w io.Writer, events []Event) error {
	var out []chromeEvent

	// Thread-name metadata for every writer that appears, in tid order.
	seen := map[int]bool{}
	for _, e := range events {
		seen[e.Ring] = true
	}
	for _, writer := range []int{WriterClient, WriterDispatcher, WriterNet} {
		if seen[writer] {
			out = append(out, metaThread(writer))
			delete(seen, writer)
		}
	}
	for wkr := 0; ; wkr++ {
		if len(seen) == 0 {
			break
		}
		if seen[wkr] {
			out = append(out, metaThread(wkr))
			delete(seen, wkr)
		}
	}

	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

	byReq, ids := group(events)
	for _, id := range ids {
		evs := byReq[id]
		reqID := id
		spanName := fmt.Sprintf("req %d", id)
		// Async span covering the request's lifetime in this snapshot.
		out = append(out, chromeEvent{
			Name: spanName, Cat: "request", Ph: "b",
			TS: us(evs[0].TS), PID: chromePID, TID: tid(evs[0].Ring), ID: &reqID,
		})
		var runStart time.Duration
		var runRing int
		running := false
		for _, e := range evs {
			switch e.Kind {
			case EvStart, EvResume:
				running, runStart, runRing = true, e.TS, e.Ring
			case EvYield, EvComplete, EvExpire, EvAbort:
				if running {
					running = false
					dur := us(e.TS - runStart)
					out = append(out, chromeEvent{
						Name: "run", Cat: "service", Ph: "X",
						TS: us(runStart), Dur: &dur,
						PID: chromePID, TID: tid(runRing),
						Args: map[string]any{"req": reqID},
					})
				}
			}
			out = append(out, chromeEvent{
				Name: e.Kind.String(), Cat: "event", Ph: "i",
				TS: us(e.TS), PID: chromePID, TID: tid(e.Ring), S: "t",
				Args: map[string]any{"arg": e.Arg, "req": reqID},
			})
		}
		out = append(out, chromeEvent{
			Name: spanName, Cat: "request", Ph: "e",
			TS: us(evs[len(evs)-1].TS), PID: chromePID, TID: tid(evs[len(evs)-1].Ring), ID: &reqID,
		})
	}

	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: out, DisplayTimeUnit: "ns"})
}

func metaThread(writer int) chromeEvent {
	return chromeEvent{
		Name: "thread_name", Ph: "M", PID: chromePID, TID: tid(writer),
		Args: map[string]any{"name": tidName(writer)},
	}
}

// WriteTimelines prints the last n completed requests (all of them when
// n <= 0) as plain-text timelines with their component breakdowns, and
// returns how many it printed.
func WriteTimelines(w io.Writer, events []Event, n int) int {
	byReq, _ := group(events)
	breakdowns := Analyze(events)
	if n > 0 && len(breakdowns) > n {
		breakdowns = breakdowns[len(breakdowns)-n:]
	}
	for _, b := range breakdowns {
		partial := ""
		if b.Partial {
			partial = " partial"
		}
		fmt.Fprintf(w, "REQ %d %s%s total=%.1fus ingress=%.1fus handoff=%.1fus queue=%.1fus service=%.1fus preempted=%.1fus egress=%.1fus preempts=%d\n",
			b.Req, b.OutcomeString(), partial, b.TotalUS(), b.IngressUS, b.HandoffUS, b.QueueUS, b.ServiceUS, b.PreemptedUS, b.EgressUS, b.Preemptions)
		for _, e := range byReq[b.Req] {
			fmt.Fprintf(w, "  +%.1fus %-15s %s arg=%d\n",
				float64(e.TS-b.SubmitTS)/float64(time.Microsecond), e.Kind.String(), tidName(e.Ring), e.Arg)
		}
	}
	return len(breakdowns)
}
