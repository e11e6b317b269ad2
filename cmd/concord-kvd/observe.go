package main

import (
	"errors"
	"time"

	"concord/internal/live"
	"concord/internal/netsrv"
	"concord/internal/obs"
	"concord/internal/proto"
	"concord/internal/shadow"
)

const egressComponent = len(componentNames) - 1

// newClassTrackers returns one tail tracker per SLO class, each over the
// shortest default window with an SLO at the class's default latency
// objective, so "critical met its SLO, sheddable burned" is a direct
// read rather than an inference from the aggregate tail.
func newClassTrackers() (out [live.NumClasses]*obs.TailTracker) {
	for c := range out {
		out[c] = obs.NewTailTracker(obs.DefaultWindows()[:1], obs.NewSLOTracker(live.SLOClass(c).DefaultObjective()))
	}
	return out
}

// observe is the server's one completion observer, netsrv's Observe: it
// sees every data response, on the completing executor or on the
// connection's reader, and feeds every configured sink. The server and
// class tails take each response's latency and success; a request the
// runtime refused (queue full, shed, stopped) was never served, so it
// counts SLO-bad without entering a latency window. A success feeds its
// class's service-time sketch and the shadow capture ring; a traced one
// feeds its op's component sketches. Nothing here blocks or allocates.
func (ob *kvObs) observe(op byte, resp live.Response) {
	r := resp.Req.(*netsrv.Request)
	if ob.tail != nil {
		refused := errors.Is(resp.Err, live.ErrQueueFull) || errors.Is(resp.Err, live.ErrShed) ||
			errors.Is(resp.Err, live.ErrServerStopped)
		for _, t := range [...]*obs.TailTracker{ob.tail, ob.classes[r.Class]} {
			if !refused {
				t.Observe(resp.Latency, resp.Err == nil)
			} else if slo := t.SLO(); slo != nil {
				slo.Observe(0, false)
			}
		}
	}
	if resp.Err == nil {
		hint := int64(r.ServiceHint())
		if ob.sketches != nil {
			ob.sketches.Observe(int(r.Class), int64(resp.Service), hint)
		}
		if ob.ring != nil {
			ob.ring.Offer(shadow.CaptureRec{
				ArrivalNS:  int64(resp.Done) - int64(resp.Latency),
				Class:      uint8(r.Class),
				HintNS:     hint,
				ServiceNS:  int64(resp.Service),
				LatencyNS:  int64(resp.Latency),
				DeadlineNS: int64(ob.deadline),
			})
		}
	}
	if b := resp.Breakdown; b != nil && op >= proto.OpGet && op <= proto.OpSpin {
		for c, d := range [...]time.Duration{resp.Latency, b.Handoff, b.Queue, b.Service, b.Preempted, b.Ingress} {
			ob.perOp[op-proto.OpGet][c].Observe(int64(d))
		}
	}
}

// observeEgress feeds the flush-side wire phase; it arrives separately
// from observe because egress is only known once the response batch hits
// the socket, after the completion callback has already run.
func (ob *kvObs) observeEgress(op byte, egress time.Duration) {
	if op >= proto.OpGet && op <= proto.OpSpin {
		ob.perOp[op-proto.OpGet][egressComponent].Observe(int64(egress))
	}
}
