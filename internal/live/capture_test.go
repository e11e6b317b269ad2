package live

// Capture-ring and composed-observer coverage: sampling arithmetic,
// ring wrap/drain semantics, and end-to-end sketch+capture feeding from
// a live server. (That the observers allocate nothing on the completion
// path is TestSubmitFuncZeroAllocs' observed rows.)

import (
	"testing"
	"time"

	"concord/internal/obs"
)

// captureTask fabricates a completed task for direct offer() calls.
func captureTask(arrival time.Time, class uint8, hintNS, runNS int64) (*task, *Response) {
	t := &task{taskState: taskState{arrival: int64(arrival.Sub(epoch)), class: class, hintNS: hintNS, runNS: runNS, started: true}}
	return t, &Response{Latency: time.Duration(runNS) * 3}
}

func TestCaptureRingSamplingRate(t *testing.T) {
	r := NewCaptureRing(64, 4)
	base := time.Now()
	for i := 0; i < 100; i++ {
		tk, resp := captureTask(base.Add(time.Duration(i)*time.Microsecond), 0, 0, 1000)
		r.offer(tk, resp)
	}
	offered, captured := r.Stats()
	if offered != 100 {
		t.Fatalf("offered = %d, want 100", offered)
	}
	if captured != 25 {
		t.Fatalf("captured = %d at rate 4, want 25", captured)
	}
	w := r.TakeWindow()
	if len(w.Recs) != 25 || w.Offered != 100 {
		t.Fatalf("window: %d recs / %d offered, want 25 / 100", len(w.Recs), w.Offered)
	}
}

func TestCaptureRingWrapKeepsNewestSorted(t *testing.T) {
	r := NewCaptureRing(8, 1)
	base := time.Now()
	for i := 0; i < 12; i++ {
		tk, resp := captureTask(base.Add(time.Duration(i)*time.Millisecond), 0, 0, int64(i+1))
		r.offer(tk, resp)
	}
	w := r.TakeWindow()
	if len(w.Recs) != 8 {
		t.Fatalf("wrapped ring drained %d recs, want capacity 8", len(w.Recs))
	}
	// The 8 survivors must be the newest (ServiceNS 5..12) in arrival order.
	for i, rec := range w.Recs {
		if want := int64(i + 5); rec.ServiceNS != want {
			t.Fatalf("rec %d: ServiceNS %d, want %d (oldest overwritten, rest arrival-sorted)",
				i, rec.ServiceNS, want)
		}
		if i > 0 && rec.ArrivalNS < w.Recs[i-1].ArrivalNS {
			t.Fatalf("rec %d out of arrival order", i)
		}
	}
	// Drain resets the window: a fresh record lands alone with its
	// offset keyed to the new epoch.
	if w2 := r.TakeWindow(); len(w2.Recs) != 0 || w2.Offered != 0 {
		t.Fatalf("second drain not empty: %d recs / %d offered", len(w2.Recs), w2.Offered)
	}
	tk, resp := captureTask(time.Now(), uint8(ClassSheddable), 2000, 1500)
	r.offer(tk, resp)
	w3 := r.TakeWindow()
	if len(w3.Recs) != 1 || w3.Offered != 1 {
		t.Fatalf("post-reset window: %d recs / %d offered, want 1 / 1", len(w3.Recs), w3.Offered)
	}
	rec := w3.Recs[0]
	if rec.Class != uint8(ClassSheddable) || rec.HintNS != 2000 || rec.ServiceNS != 1500 || rec.LatencyNS != 4500 {
		t.Fatalf("record fields dropped: %+v", rec)
	}
}

// obsSpin is a payload exercising every observer input at once: it
// spins for d under an SLO class with a service hint.
type obsSpin struct {
	d     time.Duration
	class SLOClass
	hint  time.Duration
}

func (p obsSpin) SLOClass() SLOClass         { return p.class }
func (p obsSpin) ServiceHint() time.Duration { return p.hint }

type obsSpinHandler struct{}

func (obsSpinHandler) Setup()          {}
func (obsSpinHandler) SetupWorker(int) {}
func (obsSpinHandler) Handle(ctx *Ctx, payload any) (any, error) {
	ctx.Spin(payload.(obsSpin).d)
	return nil, nil
}

// TestSketchesAndCaptureFedFromCompletions: a server built with
// Sketches+Capture (and nothing else observer-shaped) sees every
// completion classified, hinted, and measured — class, hint and run
// time are always on the task, the sinks only read them. Both sinks
// read the same run time, so per class the sketch's count and sum equal
// the capture records' count and summed service time exactly.
func TestSketchesAndCaptureFedFromCompletions(t *testing.T) {
	sk := obs.NewClassSketches(NumClasses)
	ring := NewCaptureRing(256, 1)
	o := testOptions(2, 0)
	o.Sketches = sk
	o.Capture = ring
	s := New(obsSpinHandler{}, o)
	s.Start()

	const perClass = 20
	hints := map[uint8]time.Duration{uint8(ClassCritical): 20 * time.Microsecond, uint8(ClassSheddable): 100 * time.Microsecond}
	var chans []<-chan Response
	for i := 0; i < perClass; i++ {
		chans = append(chans, s.Submit(obsSpin{d: 20 * time.Microsecond, class: ClassCritical, hint: hints[uint8(ClassCritical)]}))
		chans = append(chans, s.Submit(obsSpin{d: 200 * time.Microsecond, class: ClassSheddable, hint: hints[uint8(ClassSheddable)]}))
	}
	for _, ch := range chans {
		if resp := <-ch; resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	s.Stop()

	w := ring.TakeWindow()
	if len(w.Recs) != 2*perClass {
		t.Fatalf("capture window %d recs, want %d", len(w.Recs), 2*perClass)
	}
	var count [NumClasses]uint64
	var sum [NumClasses]int64
	for i, rec := range w.Recs {
		hint, ok := hints[rec.Class]
		if !ok {
			t.Fatalf("rec %d class %d, want critical/sheddable", i, rec.Class)
		}
		if rec.HintNS != int64(hint) {
			t.Fatalf("rec %d hint %dns, want the %v its class was submitted with", i, rec.HintNS, hint)
		}
		if rec.ServiceNS <= 0 || rec.LatencyNS < rec.ServiceNS {
			t.Fatalf("rec %d incomplete: %+v", i, rec)
		}
		count[rec.Class]++
		sum[rec.Class] += rec.ServiceNS
	}
	for class := range count {
		snap := sk.Service(class).Snapshot()
		if snap.Count != count[class] || snap.Sum != sum[class] {
			t.Fatalf("class %d sketch count %d sum %dns, capture count %d sum %dns",
				class, snap.Count, snap.Sum, count[class], sum[class])
		}
	}
	if count[ClassCritical] != perClass || count[ClassSheddable] != perClass {
		t.Fatalf("captured %d critical / %d sheddable, want %d each", count[ClassCritical], count[ClassSheddable], perClass)
	}
}
