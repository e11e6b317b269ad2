package main

// The completion observer, fed constructed responses: no server, no
// clock, no sleep. What a response carries is the runtime's contract
// (internal/live TestResponseService); what observe does with it is
// checked here exactly.

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"concord/internal/live"
	"concord/internal/netsrv"
	"concord/internal/obs"
	"concord/internal/proto"
	"concord/internal/shadow"
)

// observeDeadline stands in for -reqtimeout.
const observeDeadline = 5 * time.Millisecond

// newObserver is kvd's sink set under -obs -classes -shadow at
// -slotarget 250µs, with a 1-in-rate capture ring and no server.
func newObserver(rate int) *kvObs {
	return &kvObs{
		tail:     obs.NewTailTracker([]time.Duration{time.Second, 10 * time.Second}, obs.NewSLOTracker(250*time.Microsecond)),
		classes:  newClassTrackers(),
		sketches: obs.NewClassSketches(live.NumClasses),
		ring:     shadow.NewCaptureRing(256, rate),
		deadline: observeDeadline,
	}
}

// doneAt is the i-th response's Done: a millisecond apart, so arrivals
// (Done - Latency) sort in feed order.
func doneAt(i int) live.Stamp {
	return live.Stamp(time.Hour + time.Duration(i)*time.Millisecond)
}

func getReq(class live.SLOClass) *netsrv.Request {
	return &netsrv.Request{Op: proto.OpGet, Key: []byte("k"), Class: class}
}

// feed hands observe the response live delivers for req.
func (ob *kvObs) feed(i int, req *netsrv.Request, latency, service time.Duration, err error) {
	ob.observe(req.Op, live.Response{Req: req, Err: err, Latency: latency, Service: service, Done: doneAt(i)})
}

// checkTail asserts a tracker's shortest-window count and its SLO's
// short-window good/total.
func checkTail(t *testing.T, name string, tr *obs.TailTracker, window, good, total uint64) {
	t.Helper()
	if got := tr.Snapshot(tr.Windows()[0]).Count; got != window {
		t.Errorf("%s window Count = %d, want %d", name, got, window)
	}
	if s := tr.SLO().Snapshot(); s.ShortGood != good || s.ShortTotal != total {
		t.Errorf("%s SLO good/total = %d/%d, want %d/%d", name, s.ShortGood, s.ShortTotal, good, total)
	}
}

// TestTailTrackerWiring: every served response lands in the server's
// rolling windows and its class's, and each SLO judges it against its
// own target: the server's 250µs, the class's default objective
// (critical 1ms, standard 10ms, sheddable 100ms). A failed response is
// served and SLO-bad.
func TestTailTrackerWiring(t *testing.T) {
	ob := newObserver(1)
	const fast, slow = 40, 10
	for i := 0; i < fast; i++ {
		ob.feed(i, getReq(live.ClassCritical), 20*time.Microsecond, 15*time.Microsecond, nil)
	}
	for i := 0; i < slow; i++ {
		ob.feed(fast+i, getReq(live.ClassStandard), 2*time.Millisecond, 1500*time.Microsecond, nil)
	}
	ob.feed(fast+slow, getReq(live.ClassSheddable), 10*time.Microsecond, 5*time.Microsecond, errors.New("handler failed"))

	checkTail(t, "server", ob.tail, fast+slow+1, fast, fast+slow+1)
	if got := ob.tail.Snapshot(10 * time.Second).Count; got != fast+slow+1 {
		t.Errorf("server 10s window Count = %d, want %d", got, fast+slow+1)
	}
	checkTail(t, "critical", ob.classes[live.ClassCritical], fast, fast, fast)
	checkTail(t, "standard", ob.classes[live.ClassStandard], slow, slow, slow) // 2ms is within 10ms
	checkTail(t, "sheddable", ob.classes[live.ClassSheddable], 1, 0, 1)

	// The rolling p50 is the fast requests', the p99.9 the slow ones',
	// each within the sketch's relative error.
	win := ob.tail.Snapshot(time.Second)
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 20 * time.Microsecond}, {0.999, 2 * time.Millisecond}} {
		if got := win.Quantile(c.q); math.Abs(got-float64(c.want))/float64(c.want) > 0.045 {
			t.Errorf("rolling p%g = %vns, want %v", 100*c.q, got, c.want)
		}
	}
}

// TestTailTrackerCountsRejections: a refused request — queue full, shed,
// or stopped, whether at submission or by the drain deadline — is
// SLO-bad for the server and for its class, but never enters a latency
// window. One that expired was accepted and waited: its latency is
// windowed, and it is SLO-bad.
func TestTailTrackerCountsRejections(t *testing.T) {
	ob := newObserver(1)
	ob.feed(0, getReq(live.ClassStandard), 20*time.Microsecond, 10*time.Microsecond, nil)
	ob.feed(1, getReq(live.ClassStandard), 0, 0, live.ErrQueueFull)
	ob.feed(2, getReq(live.ClassSheddable), 0, 0, live.ErrShed)
	ob.feed(3, getReq(live.ClassCritical), 0, 0, live.ErrServerStopped)
	ob.feed(4, getReq(live.ClassCritical), 3*time.Millisecond, 40*time.Microsecond, live.ErrServerStopped)
	ob.feed(5, getReq(live.ClassSheddable), 6*time.Millisecond, 0, live.ErrDeadlineExceeded)

	checkTail(t, "server", ob.tail, 2, 1, 6)
	checkTail(t, "standard", ob.classes[live.ClassStandard], 1, 1, 2)
	checkTail(t, "critical", ob.classes[live.ClassCritical], 0, 0, 2)
	checkTail(t, "sheddable", ob.classes[live.ClassSheddable], 1, 0, 2)
	// Only the success reached the service-time sinks.
	if offered, _ := ob.ring.Stats(); offered != 1 {
		t.Errorf("capture ring offered %d responses, want 1 (the success)", offered)
	}
	if got := ob.sketches.Service(int(live.ClassStandard)).Snapshot().Count; got != 1 {
		t.Errorf("standard service sketch Count = %d, want 1", got)
	}
}

// TestSketchesAndCaptureFedFromCompletions: each success becomes one
// capture record carrying its arrival (Done - Latency), class, the hint
// its request declares, measured service time, latency and the
// -reqtimeout budget; failures are left out. The class sketches read the
// same service time, so per class the sketch's count and sum equal the
// capture records' count and summed service time.
func TestSketchesAndCaptureFedFromCompletions(t *testing.T) {
	ob := newObserver(1)
	reqs := []*netsrv.Request{
		getReq(live.ClassCritical),
		{Op: proto.OpSpin, Spin: 300 * time.Microsecond, Class: live.ClassSheddable},
		{Op: proto.OpScan},
		getReq(live.ClassCritical),
		{Op: proto.OpSpin, Spin: 100 * time.Microsecond, Class: live.ClassSheddable},
	}
	var want []shadow.CaptureRec
	for i, req := range reqs {
		latency, service := time.Duration(i+2)*100*time.Microsecond, time.Duration(i+1)*70*time.Microsecond
		ob.feed(i, req, latency, service, nil)
		want = append(want, shadow.CaptureRec{
			ArrivalNS:  int64(doneAt(i)) - int64(latency),
			Class:      uint8(req.Class),
			HintNS:     int64(req.ServiceHint()),
			ServiceNS:  int64(service),
			LatencyNS:  int64(latency),
			DeadlineNS: int64(observeDeadline),
		})
	}
	ob.feed(len(reqs), getReq(live.ClassCritical), time.Millisecond, 0, live.ErrDeadlineExceeded)
	ob.feed(len(reqs)+1, getReq(live.ClassCritical), 0, 0, live.ErrQueueFull)

	w := ob.ring.TakeWindow()
	if w.Offered != uint64(len(reqs)) || len(w.Recs) != len(reqs) {
		t.Fatalf("capture window: %d recs / %d offered, want %d / %d", len(w.Recs), w.Offered, len(reqs), len(reqs))
	}
	var count [live.NumClasses]uint64
	var sum [live.NumClasses]int64
	for i, rec := range w.Recs {
		if rec != want[i] {
			t.Errorf("rec %d = %+v, want %+v", i, rec, want[i])
		}
		count[rec.Class]++
		sum[rec.Class] += rec.ServiceNS
	}
	for class := range count {
		snap := ob.sketches.Service(class).Snapshot()
		if snap.Count != count[class] || snap.Sum != sum[class] {
			t.Errorf("class %d sketch count %d sum %dns, capture count %d sum %dns",
				class, snap.Count, snap.Sum, count[class], sum[class])
		}
	}
	if count[live.ClassCritical] != 2 || count[live.ClassSheddable] != 2 || count[live.ClassStandard] != 1 {
		t.Errorf("captured per class %v, want critical 2, sheddable 2, standard 1", count)
	}
}

// TestObserveZeroAllocs: the observer runs on every completion and
// allocates nothing — for a success the ring samples and one it skips,
// a traced success, a refusal and an expiry.
func TestObserveZeroAllocs(t *testing.T) {
	req := getReq(live.ClassCritical)
	ok := live.Response{Req: req, Latency: 20 * time.Microsecond, Service: 10 * time.Microsecond, Done: doneAt(0)}
	traced := ok
	traced.Breakdown = &live.Breakdown{Service: ok.Service}
	for _, c := range []struct {
		name string
		rate int
		resp live.Response
	}{
		{"sampled success", 1, ok},
		{"unsampled success", math.MaxInt, ok},
		{"traced success", 1, traced},
		{"refused", 1, live.Response{Req: req, Err: live.ErrShed, Done: doneAt(0)}},
		{"expired", 1, live.Response{Req: req, Err: live.ErrDeadlineExceeded, Latency: time.Millisecond, Done: doneAt(0)}},
	} {
		ob := newObserver(c.rate)
		if allocs := testing.AllocsPerRun(1000, func() { ob.observe(req.Op, c.resp) }); allocs != 0 {
			t.Errorf("%s: observe allocates %v times, want 0", c.name, allocs)
		}
	}
}

// TestObserveConcurrent: netsrv calls observe from every completing
// executor and connection reader at once; no count is lost.
func TestObserveConcurrent(t *testing.T) {
	ob := newObserver(1)
	const goroutines, each = 4, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				var err error
				if i%2 == 1 {
					err = live.ErrQueueFull
				}
				ob.feed(i, getReq(live.ClassStandard), 20*time.Microsecond, 10*time.Microsecond, err)
			}
		}()
	}
	wg.Wait()
	const served = goroutines * each / 2
	checkTail(t, "server", ob.tail, served, served, 2*served)
	checkTail(t, "standard", ob.classes[live.ClassStandard], served, served, 2*served)
	if offered, kept := ob.ring.Stats(); offered != served || kept != served {
		t.Errorf("capture ring offered/kept %d/%d, want %d/%d", offered, kept, served, served)
	}
	if got := ob.sketches.Service(int(live.ClassStandard)).Snapshot().Count; got != served {
		t.Errorf("standard service sketch Count = %d, want %d", got, served)
	}
}
