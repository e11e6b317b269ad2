package main

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"concord/internal/live"
	"concord/internal/netsrv"
	"concord/internal/obs"
	"concord/internal/proto"
	"concord/internal/shadow"
)

// kvObs is the server's operator surface: the components it reports on
// (srv always; the rest nil when their flag is off), the metric
// registry both /metrics and STATS render from, the per-op
// latency-component sketches fed from completed responses, and the
// per-render snapshot every registered value reads.
type kvObs struct {
	srv      *live.Server
	ns       *netsrv.Server
	tracer   *obs.Tracer
	tail     *obs.TailTracker
	sketches *obs.ClassSketches
	replayer *shadow.Replayer

	metrics obs.Metrics
	perOp   [len(opNames)][len(componentNames)]obs.QuantileSketch
	snap    kvSnap
}

// kvSnap is one instant of everything the registry reports, refreshed
// once at the start of each render, so the counters in one exposition
// agree with each other and the SLO alert latch advances once per
// render however many series read it.
type kvSnap struct {
	st       live.Stats
	d        live.Depths
	net      netsrv.NetStats
	flush    obs.SketchSnapshot
	win      []obs.SketchSnapshot // per tail window
	slo      obs.SLOSnapshot
	class    [live.NumClasses]obs.SketchSnapshot // shortest window
	classSLO [live.NumClasses]obs.SLOSnapshot
	svc      [live.NumClasses]obs.SketchSnapshot
	regret   *shadow.Result
	replays  struct{ windows, skipped, offered, kept uint64 }
}

func (ob *kvObs) refresh() {
	s := &ob.snap
	s.st, s.d = ob.srv.Stats(), ob.srv.Depths()
	if ob.ns != nil {
		s.net, s.flush = ob.ns.NetStats(), ob.ns.FlushBatch().Snapshot()
	}
	if t := ob.tail; t != nil {
		for i, w := range t.Windows() {
			s.win[i] = t.Snapshot(w)
		}
		if slo := t.SLO(); slo != nil {
			s.slo = slo.Snapshot()
		}
		for c, ct := range t.Classes {
			s.class[c], s.classSLO[c] = ct.Snapshot(ct.Windows()[0]), ct.SLO().Snapshot()
		}
	}
	if ob.sketches != nil {
		for c := range s.svc {
			s.svc[c] = ob.sketches.Service(c).Snapshot()
		}
	}
	if r := ob.replayer; r != nil {
		s.regret = r.Latest()
		s.replays.windows, s.replays.skipped = r.Counts()
		s.replays.offered, s.replays.kept = r.Ring().Stats()
	}
}

var (
	// classNames labels the SLO classes (live.SLOClass values, in index
	// order) on per-class metric families.
	classNames = [live.NumClasses]string{"standard", "critical", "sheddable"}
	// opNames labels the data ops, indexed by opcode - proto.OpGet.
	opNames = [...]string{"get", "put", "del", "scan", "spin"}
	// componentNames labels a request's latency components: the total,
	// then the partition DESIGN.md §4c defines (egress arrives apart).
	componentNames = [...]string{"total", "handoff", "queue", "service", "preempted", "ingress", "egress"}
)

const egressComponent = len(componentNames) - 1

// observe feeds one completed response into its op's component sketches.
func (ob *kvObs) observe(op byte, resp live.Response) {
	b := resp.Breakdown
	if op < proto.OpGet || op > proto.OpSpin || b == nil {
		return
	}
	for c, d := range [...]time.Duration{resp.Latency, b.Handoff, b.Queue, b.Service, b.Preempted, b.Ingress} {
		ob.perOp[op-proto.OpGet][c].Observe(int64(d))
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

// fmtWindow renders a window for STATS keys and metric labels: whole
// seconds as "10s"/"60s" (time.Duration.String would say "1m0s"),
// anything else via Duration.String.
func fmtWindow(d time.Duration) string {
	if d%time.Second == 0 {
		return fmt.Sprintf("%ds", int(d/time.Second))
	}
	return d.String()
}

// quantile is one labelled rank of the quantile gauge families.
type quantile struct {
	label string
	q     float64
}

var p50, p90, p99, p999 = quantile{"p50", 0.50}, quantile{"p90", 0.90}, quantile{"p99", 0.99}, quantile{"p999", 0.999}

// of reads the rank from a per-render snapshot, in units of unit sketch
// values (1e3: a ns sketch in µs), or empty when it has no data.
func (q quantile) of(snap *obs.SketchSnapshot, unit, empty float64) func() float64 {
	return func() float64 {
		if snap.Count == 0 {
			return empty
		}
		return snap.Quantile(q.q) / unit
	}
}

func count(p *uint64) func() float64 { return func() float64 { return float64(*p) } }

func truth(p *bool) func() float64 {
	return func() float64 {
		if *p {
			return 1
		}
		return 0
	}
}

// attainment is the good-request ratio over the long SLO window, 1
// before any traffic.
func attainment(s *obs.SLOSnapshot) func() float64 {
	return func() float64 {
		if s.LongTotal == 0 {
			return 1
		}
		return float64(s.LongGood) / float64(s.LongTotal)
	}
}

// register fills the registry: every family once, in STATS field order,
// each group present exactly when its source is configured. Values read
// only ob.snap, which the render hook refreshes.
func (ob *kvObs) register() *kvObs {
	m, s := &ob.metrics, &ob.snap
	if ob.tail != nil {
		s.win = make([]obs.SketchSnapshot, len(ob.tail.Windows()))
	}
	ob.refresh() // sizes the per-worker and per-shard depth slices
	m.OnRender(ob.refresh)
	add := m.Register
	nan := math.NaN()

	for _, c := range []struct {
		name, help, stat string
		v                *uint64
	}{
		{"concord_submitted_total", "requests accepted", "submitted", &s.st.Submitted},
		{"concord_completed_total", "responses delivered", "completed", &s.st.Completed},
		{"concord_rejected_total", "requests never accepted", "rejected", &s.st.Rejected},
		{"concord_expired_total", "requests past their deadline", "expired", &s.st.Expired},
		{"concord_aborted_total", "requests failed by drain abort", "aborted", &s.st.Aborted},
		{"concord_preemptions_total", "request yields", "preemptions", &s.st.Preemptions},
		{"concord_dispatcher_run_total", "requests completed by a work-conserving dispatcher (own-queue or stolen)", "dispatcher_run", &s.st.DispatcherRun},
		{"concord_steals_total", "never-started requests migrated between shards", "steals", &s.st.Steals},
		{"concord_shed_total", "sheddable requests dropped by class admission", "shed", &s.st.Shed},
	} {
		add(obs.Metric{Name: c.name, Help: c.help, Kind: obs.Counter, Value: count(c.v), Stat: c.stat})
	}
	for class, name := range classNames {
		for _, r := range []struct {
			result string
			v      *uint64
		}{
			{"submitted", &s.st.ClassSubmitted[class]},
			{"completed", &s.st.ClassCompleted[class]},
			{"rejected", &s.st.ClassRejected[class]},
		} {
			add(obs.Metric{Name: "concord_class_requests_total", Help: "per-SLO-class request outcomes", Kind: obs.Counter,
				Labels: obs.Labels("class", name, "result", r.result), Value: count(r.v), Stat: "class_" + r.result})
		}
	}

	depth := func(name, help, labels, stat string, v func() int) {
		add(obs.Metric{Name: name, Help: help, Kind: obs.Gauge, Labels: labels, Stat: stat,
			Value: func() float64 { return float64(v()) }})
	}
	for _, q := range []struct {
		queue, stat string
		v           func() int
	}{
		{"central", "central", func() int { return s.d.Central }},
		{"submit", "submitq", func() int { return s.d.Submit }},
	} {
		depth("concord_queue_depth", "live queue occupancy", obs.Labels("queue", q.queue), q.stat, q.v)
	}
	for w := range s.d.Workers {
		w := w
		depth("concord_worker_occupancy", "JBSQ occupancy incl. in-service", obs.Labels("worker", strconv.Itoa(w)), "occ",
			func() int { return s.d.Workers[w] })
	}
	for sh := range s.d.ShardQueues {
		sh := sh
		depth("concord_shard_queue_depth", "per-shard central-queue length", obs.Labels("shard", strconv.Itoa(sh)), "shardq",
			func() int { return s.d.ShardQueues[sh] })
		depth("concord_shard_occupancy", "per-shard sum of worker JBSQ occupancy", obs.Labels("shard", strconv.Itoa(sh)), "shardocc",
			func() int { return s.d.ShardOcc[sh] })
	}

	if ob.ns != nil {
		depth("concord_net_connections", "currently open client connections", "", "conns", func() int { return int(s.net.Conns) })
		depth("concord_net_pipeline_depth", "requests read off the wire (either protocol) whose response has not yet been written", "", "pipeline", func() int { return int(s.net.Pipeline) })
		for _, f := range []struct {
			dir string
			v   *uint64
		}{{"in", &s.net.FramesIn}, {"out", &s.net.FramesOut}} {
			add(obs.Metric{Name: "concord_net_frames_total", Help: "binary frames decoded/written", Kind: obs.Counter,
				Labels: obs.Labels("dir", f.dir), Value: count(f.v), Stat: "frames_" + f.dir})
		}
		for _, c := range []struct {
			name, help, stat string
			v                *uint64
		}{
			{"concord_net_flushes_total", "batched response writes", "flushes", &s.net.Flushes},
			{"concord_net_text_lines_total", "text-protocol lines served", "text_lines", &s.net.TextLines},
			{"concord_net_toolarge_total", "requests rejected for exceeding -maxreq", "toolarge", &s.net.TooLarge},
			{"concord_net_bad_frames_total", "frames with unknown opcode or undecodable body", "badframes", &s.net.BadFrames},
			{"concord_net_write_closed_total", "connections closed by a failed or timed-out response write", "write_closed", &s.net.WriteClosed},
		} {
			add(obs.Metric{Name: c.name, Help: c.help, Kind: obs.Counter, Value: count(c.v), Stat: c.stat})
		}
		flush := func() obs.SketchSnapshot { return s.flush }
		add(obs.Metric{Name: "concord_net_flush_batch", Help: "responses coalesced per flush", Kind: obs.Histogram, Sketch: flush,
			Stat: "flush_batch_mean", Format: "%.2f", Value: func() float64 {
				if s.net.Flushes == 0 {
					return 0
				}
				return float64(s.net.FramesOut) / float64(s.net.Flushes)
			}})
		// The mean hides bimodal batching (many 1s plus a few huge
		// coalesced writes); the quantiles do not.
		for _, q := range []quantile{p50, p99} {
			add(obs.Metric{Name: "concord_net_flush_batch_quantile", Help: "flush-batch size quantiles (responses coalesced per flush)", Kind: obs.Gauge,
				Labels: obs.Labels("quantile", q.label), Value: q.of(&s.flush, 1, 0), Stat: "flush_batch_" + q.label, Format: "%.2f"})
		}
	}

	if t := ob.tail; t != nil {
		for i, w := range t.Windows() {
			for _, q := range []quantile{p50, p99, p999} {
				add(obs.Metric{Name: "concord_rolling_latency_us", Help: "rolling latency quantiles over trailing windows in microseconds", Kind: obs.Gauge,
					Labels: obs.Labels("window", fmtWindow(w), "quantile", q.label), Value: q.of(&s.win[i], 1e3, nan),
					Stat: q.label + "_" + fmtWindow(w), Format: "%.1f"})
			}
		}
		if t.SLO() != nil {
			gauge := func(name, help, labels, stat, format string, v func() float64) {
				add(obs.Metric{Name: name, Help: help, Kind: obs.Gauge, Labels: labels, Value: v, Stat: stat, Format: format})
			}
			for _, b := range []struct {
				window string
				v      *float64
			}{{"short", &s.slo.ShortBurn}, {"long", &s.slo.LongBurn}} {
				b := b
				gauge("concord_slo_burn_rate", "SLO error-budget burn rate (bad ratio / budget) over the short and long windows",
					obs.Labels("window", b.window), "burn_"+b.window, "%.2f", func() float64 { return *b.v })
			}
			for _, c := range []struct {
				window, result string
				v              *uint64
			}{
				{"short", "good", &s.slo.ShortGood}, {"short", "total", &s.slo.ShortTotal},
				{"long", "good", &s.slo.LongGood}, {"long", "total", &s.slo.LongTotal},
			} {
				gauge("concord_slo_requests", "windowed SLO request counts", obs.Labels("window", c.window, "result", c.result), "", "", count(c.v))
			}
			gauge("concord_slo_alerting", "1 while both burn-rate windows exceed the alert threshold", "", "slo_alerting", "", truth(&s.slo.Alerting))
		}
		for class := range t.Classes {
			name := classNames[class]
			for _, q := range []quantile{p50, p99} {
				mt := obs.Metric{Name: "concord_class_latency_us", Help: "per-SLO-class rolling latency quantiles in microseconds (shortest window)", Kind: obs.Gauge,
					Labels: obs.Labels("class", name, "quantile", q.label), Value: q.of(&s.class[class], 1e3, nan)}
				if q == p99 {
					mt.Stat, mt.Format = "class_p99_us", "%.1f"
				}
				add(mt)
			}
			add(obs.Metric{Name: "concord_class_slo_attainment", Kind: obs.Gauge, Labels: obs.Labels("class", name),
				Help:  "per-SLO-class good-request ratio over the long SLO window (1 = every request within the class objective)",
				Value: attainment(&s.classSLO[class]), Stat: "class_slo", Format: "%.3f"})
		}
	}

	if ob.sketches != nil {
		for class, name := range classNames {
			for _, q := range []quantile{p50, p90, p99} {
				mt := obs.Metric{Name: "concord_svc_time_us", Help: "measured per-class service-time quantiles in microseconds (log-bucket sketch)", Kind: obs.Gauge,
					Labels: obs.Labels("class", name, "quantile", q.label), Value: q.of(&s.svc[class], 1e3, 0)}
				if q != p90 {
					mt.Stat, mt.Format = "svc_"+q.label+"_us", "%.1f"
				}
				add(mt)
			}
			add(obs.Metric{Name: "concord_svc_time_samples_total", Help: "service-time observations folded into each class sketch", Kind: obs.Counter,
				Labels: obs.Labels("class", name), Value: count(&s.svc[class].Count)})
			add(obs.Metric{Name: "concord_hint_error", Help: "hint/actual service-time ratio x100 per class (100 = exact hint)", Kind: obs.Histogram,
				Labels: obs.Labels("class", name), Sketch: ob.sketches.HintError(class).Snapshot})
		}
	}

	if ob.replayer != nil {
		add(obs.Metric{Name: "concord_regret_windows_total", Help: "shadow windows replayed", Kind: obs.Counter,
			Value: count(&s.replays.windows), Stat: "regret_windows"})
		add(obs.Metric{Name: "concord_regret_skipped_total", Help: "shadow windows skipped for too few samples", Kind: obs.Counter,
			Value: count(&s.replays.skipped), Stat: "regret_skipped"})
		for _, c := range []struct {
			result, stat string
			v            *uint64
		}{{"offered", "", &s.replays.offered}, {"kept", "shadow_captured", &s.replays.kept}} {
			add(obs.Metric{Name: "concord_shadow_captures_total", Help: "completions seen by the capture ring vs sampled into it", Kind: obs.Counter,
				Labels: obs.Labels("result", c.result), Value: count(c.v), Stat: c.stat})
		}
		for _, policy := range shadow.Policies() {
			policy := policy
			add(obs.Metric{Name: "concord_regret_best_policy", Help: "1 on the policy that won the last shadow window", Kind: obs.Gauge,
				Labels: obs.Labels("policy", policy), Stat: "regret_best", Join: obs.JoinLabel,
				Value: func() float64 {
					if s.regret != nil && s.regret.Best == policy {
						return 1
					}
					return 0
				}})
		}
		add(obs.Metric{Name: "concord_regret_ratio", Help: "last shadow window: achieved p99 over the best counterfactual p99 (1 = already optimal)", Kind: obs.Gauge,
			Value: func() float64 { return s.regret.RegretRatio() }, Stat: "regret", Format: "%.2f"})
		for _, policy := range shadow.Policies() {
			policy := policy
			add(obs.Metric{Name: "concord_regret_p99_ratio", Kind: obs.Gauge, Labels: obs.Labels("policy", policy),
				Help:  "last shadow window: counterfactual p99 over achieved p99 per policy (<1 = that policy would have won)",
				Value: func() float64 { return s.regret.PolicyRatio(policy) }, Stat: "regret_ratio_" + policy, Format: "%.2f"})
		}
	}

	if ob.tracer != nil {
		for op, opName := range opNames {
			for c, component := range componentNames {
				add(obs.Metric{Name: "concord_request_us", Help: "per-op latency components in microseconds", Kind: obs.Histogram,
					Labels: obs.Labels("op", opName, "component", component), Sketch: ob.perOp[op][c].Snapshot, Unit: 1e3})
			}
		}
	}
	obs.RegisterBuildInfo(m)
	obs.RegisterGoRuntime(m)
	return ob
}
