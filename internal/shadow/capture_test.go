package shadow

// Capture-ring coverage: sampling arithmetic and ring wrap/drain
// semantics. (The records concord-kvd builds from completions are
// checked there.)

import (
	"testing"
	"time"

	"concord/internal/live"
)

// captureRec fabricates a completed request's record.
func captureRec(arrival time.Time, class uint8, hintNS, runNS int64) CaptureRec {
	return CaptureRec{ArrivalNS: arrival.UnixNano(), Class: class, HintNS: hintNS, ServiceNS: runNS, LatencyNS: 3 * runNS}
}

func TestCaptureRingSamplingRate(t *testing.T) {
	r := NewCaptureRing(64, 4)
	base := time.Now()
	for i := 0; i < 100; i++ {
		r.Offer(captureRec(base.Add(time.Duration(i)*time.Microsecond), 0, 0, 1000))
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
		r.Offer(captureRec(base.Add(time.Duration(i)*time.Millisecond), 0, 0, int64(i+1)))
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
	// Drain resets the window: a fresh record lands alone.
	if w2 := r.TakeWindow(); len(w2.Recs) != 0 || w2.Offered != 0 {
		t.Fatalf("second drain not empty: %d recs / %d offered", len(w2.Recs), w2.Offered)
	}
	r.Offer(captureRec(time.Now(), uint8(live.ClassSheddable), 2000, 1500))
	w3 := r.TakeWindow()
	if len(w3.Recs) != 1 || w3.Offered != 1 {
		t.Fatalf("post-reset window: %d recs / %d offered, want 1 / 1", len(w3.Recs), w3.Offered)
	}
	rec := w3.Recs[0]
	if rec.Class != uint8(live.ClassSheddable) || rec.HintNS != 2000 || rec.ServiceNS != 1500 || rec.LatencyNS != 4500 {
		t.Fatalf("record fields dropped: %+v", rec)
	}
}
