// Completion-observer fan-out. The runtime has three completion sinks —
// rolling tail/SLO tracking, server-wide and per class (Options.Tail),
// the per-class service-time and hint-error sketches (Options.Sketches),
// and the shadow capture ring (Options.Capture). Threading each as its
// own nil-checked hook put one branch per sink on the completion hot
// path; composing them here keeps finish() at exactly one branch
// regardless of how many sinks are configured, and gives new sinks one
// obvious place to land.
package live

import (
	"time"

	"concord/internal/obs"
)

// NewClassTrackers returns one tail tracker per SLOClass, each over the
// shortest default window with an SLO at the class's default latency
// objective — the value for an obs.TailTracker's Classes. Each class
// then measures against its own objective, so "critical met its SLO,
// sheddable burned" is a direct read rather than an inference from the
// aggregate tail.
func NewClassTrackers() []*obs.TailTracker {
	out := make([]*obs.TailTracker, NumClasses)
	for c := range out {
		slo := obs.NewSLOTracker(obs.SLOConfig{Target: SLOClass(c).DefaultObjective()})
		out[c] = obs.NewTailTracker([]time.Duration{obs.DefaultWindows()[0]}, slo)
	}
	return out
}

// compObserver multiplexes every configured completion sink behind a
// single nil check in finish(). Built once at New; immutable after.
type compObserver struct {
	tail *obs.TailTracker
	sk   *obs.ClassSketches
	cap  *CaptureRing
}

// newCompObserver composes the configured sinks; nil when no sink is
// configured, so an unobserved server pays one predictable untaken
// branch per completion.
func newCompObserver(o Options) *compObserver {
	if o.Tail == nil && o.Sketches == nil && o.Capture == nil {
		return nil
	}
	return &compObserver{tail: o.Tail, sk: o.Sketches, cap: o.Capture}
}

// observe fans one delivered response out to every sink. It runs on
// the completing executor's hot path: every sink is wait-free or a
// short uncontended critical section, and none may block.
func (o *compObserver) observe(t *task, resp *Response) {
	if o.tail != nil {
		o.tail.ObserveClass(int(t.class), resp.Latency, resp.Err == nil)
	}
	if resp.Err != nil || !t.started {
		return // service-time sinks only see measured, successful runs
	}
	if o.sk != nil {
		o.sk.Observe(int(t.class), t.runNS, t.hintNS)
	}
	if o.cap != nil {
		o.cap.offer(t, resp)
	}
}
