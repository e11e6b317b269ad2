package adapt

// End-to-end actuator check for measured per-class quanta: real
// completions on a live server feed the class sketches, the controller
// reads their quantiles through Config.ClassSvcNS, and the server's
// per-class quantum table moves to match — the full sensing→control→
// actuation loop, no fakes.

import (
	"testing"
	"time"

	"concord/internal/live"
	"concord/internal/obs"
)

type classedSpin struct {
	d     time.Duration
	class live.SLOClass
}

func (p classedSpin) SLOClass() live.SLOClass { return p.class }

type liveSpinHandler struct{}

func (liveSpinHandler) Setup()          {}
func (liveSpinHandler) SetupWorker(int) {}
func (liveSpinHandler) Handle(ctx *live.Ctx, payload any) (any, error) {
	ctx.Spin(payload.(classedSpin).d)
	return nil, nil
}

func TestLiveClassQuantaFollowMeasuredService(t *testing.T) {
	sk := obs.NewClassSketches(live.NumClasses)
	s := live.New(liveSpinHandler{}, live.Options{
		Workers: 2, Quantum: 100 * time.Microsecond, QueueBound: 2,
		Sketches: sk,
	})
	s.Start()
	defer s.Stop()

	cfg := Config{
		Interval:   50 * time.Millisecond,
		MinQuantum: 5 * time.Microsecond,
		MaxQuantum: 2 * time.Millisecond,
		// The median, not a tail quantile: of 30 short spins it takes
		// three descheduled ones to own the p90 (seen under
		// package-parallel load: short 78µs, long 121µs) but fifteen to
		// move the median, so the host's load stays out of the verdict.
		ClassSvcNS: func() []float64 { return sk.ServiceQuantilesNS(0.5) },
	}
	c := New(s, cfg)

	// A 300× true separation: on a contended 1-vCPU machine wall-clock
	// spins measure inflated — a 20µs spin descheduled behind a long
	// spin can read ~600µs — so the long class must dwarf not just the
	// short class's true service but its inflated reading, or scheduler
	// jitter closes the measured ratio below the asserted one.
	var chans []<-chan live.Response
	for i := 0; i < 30; i++ {
		chans = append(chans, s.Submit(classedSpin{d: 20 * time.Microsecond, class: live.ClassCritical}))
		chans = append(chans, s.Submit(classedSpin{d: 6 * time.Millisecond, class: live.ClassSheddable}))
	}
	for _, ch := range chans {
		if resp := <-ch; resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}

	c.Step(Signals{})
	short, long := s.ClassQuantum(int(live.ClassCritical)), s.ClassQuantum(int(live.ClassSheddable))
	if short <= 0 || long <= 0 {
		t.Fatalf("class quanta unset after measured step: short %v long %v", short, long)
	}
	// Long work spins 300× the short work; the measured quanta must at
	// least preserve the ordering with real headroom (4× is far under
	// the true 300× ratio but over any timing jitter).
	if long < 4*short {
		t.Fatalf("class quanta did not follow measured service: short %v long %v", short, long)
	}
}
