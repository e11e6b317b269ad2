package obs

import (
	"math"
	"strings"
	"testing"
	"time"
)

// evt builds a synthetic event at t microseconds.
func evt(us int64, req uint64, kind Kind, ring int, arg int64) Event {
	return Event{TS: time.Duration(us) * time.Microsecond, Req: req, Kind: kind, Ring: ring, Arg: arg}
}

// preemptedLifecycle is a full single-preemption request: submitted at
// 0, ingested at 10, dispatched and started at 20, preempted (yield at
// 50), requeued, resumed at 60, completed at 80.
func preemptedLifecycle(req uint64) []Event {
	return []Event{
		evt(0, req, EvSubmit, WriterClient, 0),
		evt(10, req, EvEnqueueCentral, WriterDispatcher, 0),
		evt(12, req, EvDispatch, WriterDispatcher, 0),
		evt(20, req, EvStart, 0, 1),
		evt(50, req, EvYield, 0, 0),
		evt(51, req, EvRequeue, 0, 0),
		evt(52, req, EvEnqueueCentral, WriterDispatcher, 0),
		evt(55, req, EvDispatch, WriterDispatcher, 1),
		evt(60, req, EvResume, 1, 2),
		evt(80, req, EvComplete, 1, StatusOK),
	}
}

// wireLifecycle is a full wire-to-wire request: frame read at 0, parsed
// at 2, submitted at 3, enqueued at 13, started at 23, completed at 53,
// flush-queued at 54, flushed (batch of 2) at 57.
func wireLifecycle(req uint64) []Event {
	return []Event{
		evt(0, req, EvFrameRead, WriterNet, 0),
		evt(2, req, EvParsed, WriterNet, 0),
		evt(3, req, EvSubmit, WriterClient, 0),
		evt(13, req, EvEnqueueCentral, WriterDispatcher, 0),
		evt(15, req, EvDispatch, WriterDispatcher, 0),
		evt(23, req, EvStart, 0, 1),
		evt(53, req, EvComplete, 0, StatusOK),
		evt(54, req, EvFlushQueued, WriterNet, 0),
		evt(57, req, EvFlushed, WriterNet, 2),
	}
}

// TestAnalyzeWirePhases: with the net events present the breakdown
// gains ingress (frame read → submit) and egress (complete → flushed)
// and the six components still partition the total exactly — the
// telescoping identity the -breakdown e2e check rests on.
func TestAnalyzeWirePhases(t *testing.T) {
	bs := Analyze(wireLifecycle(11))
	if len(bs) != 1 {
		t.Fatalf("got %d breakdowns, want 1", len(bs))
	}
	b := bs[0]
	if b.Partial {
		t.Fatalf("frame-read-first lifecycle marked partial: %+v", b)
	}
	if b.IngressUS != 3 {
		t.Fatalf("ingress = %v, want 3 (frame-read→submit)", b.IngressUS)
	}
	if b.HandoffUS != 10 {
		t.Fatalf("handoff = %v, want 10 (submit→enqueue, not frame→enqueue)", b.HandoffUS)
	}
	if b.QueueUS != 10 || b.ServiceUS != 30 || b.PreemptedUS != 0 {
		t.Fatalf("scheduler components = %+v", b)
	}
	if b.EgressUS != 4 {
		t.Fatalf("egress = %v, want 4 (complete→flushed)", b.EgressUS)
	}
	if b.TotalUS() != 57 {
		t.Fatalf("total = %v, want 57 (frame-read→flushed)", b.TotalUS())
	}
	if math.Abs(b.SumUS()-b.TotalUS()) > 1e-9 {
		t.Fatalf("components sum %v != total %v", b.SumUS(), b.TotalUS())
	}
	if b.OutcomeString() != "ok" {
		t.Fatalf("outcome = %q", b.OutcomeString())
	}
}

// TestAnalyzeEgressOnPreempted: flush events appended to a preempted
// lifecycle extend the total to the flush timestamp without disturbing
// the scheduler components, and the partition stays exact.
func TestAnalyzeEgressOnPreempted(t *testing.T) {
	evs := append(preemptedLifecycle(9),
		evt(81, 9, EvFlushQueued, WriterNet, 0),
		evt(83, 9, EvFlushed, WriterNet, 1),
	)
	bs := Analyze(evs)
	if len(bs) != 1 {
		t.Fatalf("got %d breakdowns, want 1", len(bs))
	}
	b := bs[0]
	if b.IngressUS != 0 {
		t.Fatalf("ingress = %v, want 0 (no frame-read event)", b.IngressUS)
	}
	if b.EgressUS != 3 {
		t.Fatalf("egress = %v, want 3 (complete@80→flushed@83)", b.EgressUS)
	}
	if b.HandoffUS != 10 || b.QueueUS != 10 || b.ServiceUS != 50 || b.PreemptedUS != 10 {
		t.Fatalf("scheduler components disturbed by flush events: %+v", b)
	}
	if b.TotalUS() != 83 {
		t.Fatalf("total = %v, want 83 (submit→flushed)", b.TotalUS())
	}
	if math.Abs(b.SumUS()-b.TotalUS()) > 1e-9 {
		t.Fatalf("components sum %v != total %v", b.SumUS(), b.TotalUS())
	}
}

func TestAnalyzePreemptedRequest(t *testing.T) {
	bs := Analyze(preemptedLifecycle(42))
	if len(bs) != 1 {
		t.Fatalf("got %d breakdowns, want 1", len(bs))
	}
	b := bs[0]
	if b.Req != 42 || b.Partial {
		t.Fatalf("breakdown = %+v", b)
	}
	if b.HandoffUS != 10 {
		t.Fatalf("handoff = %v, want 10 (submit→enqueue)", b.HandoffUS)
	}
	if b.QueueUS != 10 {
		t.Fatalf("queue = %v, want 10 (enqueue→start)", b.QueueUS)
	}
	if b.ServiceUS != 50 {
		t.Fatalf("service = %v, want 50 ((50-20)+(80-60))", b.ServiceUS)
	}
	if b.PreemptedUS != 10 {
		t.Fatalf("preempted = %v, want 10 (yield→resume)", b.PreemptedUS)
	}
	if b.Preemptions != 1 {
		t.Fatalf("preemptions = %d, want 1", b.Preemptions)
	}
	if b.TotalUS() != 80 {
		t.Fatalf("total = %v, want 80", b.TotalUS())
	}
	if math.Abs(b.SumUS()-b.TotalUS()) > 1e-9 {
		t.Fatalf("components sum %v != total %v", b.SumUS(), b.TotalUS())
	}
	if b.OutcomeString() != "ok" {
		t.Fatalf("outcome = %q", b.OutcomeString())
	}
}

func TestAnalyzeRejected(t *testing.T) {
	bs := Analyze([]Event{evt(5, 7, EvReject, WriterClient, StatusQueueFull)})
	if len(bs) != 1 {
		t.Fatalf("got %d breakdowns", len(bs))
	}
	b := bs[0]
	if b.OutcomeString() != "rejected-full" || b.SumUS() != 0 || b.TotalUS() != 0 {
		t.Fatalf("reject breakdown = %+v", b)
	}
}

func TestAnalyzeExpiredInQueue(t *testing.T) {
	bs := Analyze([]Event{
		evt(0, 3, EvSubmit, WriterClient, 0),
		evt(5, 3, EvEnqueueCentral, WriterDispatcher, 0),
		evt(100, 3, EvExpire, WriterDispatcher, StatusDeadline),
	})
	if len(bs) != 1 {
		t.Fatal("expired request missing")
	}
	b := bs[0]
	if b.HandoffUS != 5 || b.QueueUS != 95 || b.ServiceUS != 0 {
		t.Fatalf("expired breakdown = %+v", b)
	}
	if b.OutcomeString() != "expired" {
		t.Fatalf("outcome = %q", b.OutcomeString())
	}
	if math.Abs(b.SumUS()-b.TotalUS()) > 1e-9 {
		t.Fatalf("sum %v != total %v", b.SumUS(), b.TotalUS())
	}
}

func TestAnalyzeAbortedWhileParked(t *testing.T) {
	bs := Analyze([]Event{
		evt(0, 4, EvSubmit, WriterClient, 0),
		evt(2, 4, EvEnqueueCentral, WriterDispatcher, 0),
		evt(4, 4, EvStart, 0, 1),
		evt(30, 4, EvYield, 0, 0),
		evt(90, 4, EvAbort, WriterDispatcher, StatusStopped),
	})
	b := bs[0]
	if b.ServiceUS != 26 || b.PreemptedUS != 60 {
		t.Fatalf("aborted breakdown = %+v (final parked interval must land in Preempted)", b)
	}
	if math.Abs(b.SumUS()-b.TotalUS()) > 1e-9 {
		t.Fatalf("sum %v != total %v", b.SumUS(), b.TotalUS())
	}
}

func TestAnalyzeInFlightOmittedAndOrdering(t *testing.T) {
	events := append(preemptedLifecycle(1),
		evt(200, 2, EvSubmit, WriterClient, 0), // still in flight
		evt(90, 5, EvSubmit, WriterClient, 0),
		evt(95, 5, EvEnqueueCentral, WriterDispatcher, 0),
		evt(96, 5, EvStart, 0, 1),
		evt(99, 5, EvComplete, 0, StatusOK),
	)
	bs := Analyze(events)
	if len(bs) != 2 {
		t.Fatalf("got %d breakdowns, want 2 (in-flight omitted)", len(bs))
	}
	if bs[0].Req != 1 || bs[1].Req != 5 {
		t.Fatalf("not ordered by completion: %v, %v", bs[0].Req, bs[1].Req)
	}
}

func TestAnalyzePartial(t *testing.T) {
	// Wraparound lost the submit: first event is a resume.
	bs := Analyze([]Event{
		evt(60, 9, EvResume, 1, 2),
		evt(80, 9, EvComplete, 1, StatusOK),
	})
	if len(bs) != 1 || !bs[0].Partial {
		t.Fatalf("partial request mishandled: %+v", bs)
	}
	if bs[0].ServiceUS != 20 {
		t.Fatalf("partial service = %v", bs[0].ServiceUS)
	}
}

func TestWriteTimelines(t *testing.T) {
	events := append(preemptedLifecycle(1), preemptedLifecycle(2)...)
	var b strings.Builder
	n := WriteTimelines(&b, events, 1)
	if n != 1 {
		t.Fatalf("printed %d timelines, want 1", n)
	}
	out := b.String()
	if !strings.Contains(out, "REQ 2 ok") || strings.Contains(out, "REQ 1") {
		t.Fatalf("last-n selection wrong:\n%s", out)
	}
	for _, want := range []string{"submit", "enqueue-central", "dispatch", "start", "yield", "requeue", "resume", "complete", "worker 1", "dispatcher", "clients"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}
	var all strings.Builder
	if n := WriteTimelines(&all, events, 0); n != 2 {
		t.Fatalf("n<=0 should print all timelines, printed %d", n)
	}
}
