// Command concord-kvd serves the in-memory key-value store over TCP on
// top of the live Concord runtime — the LevelDB-server experiment of
// §5.3 as a runnable system.
//
// Each connection speaks one of two protocols, auto-detected from its
// first byte (see internal/netsrv and DESIGN.md §Wire protocol):
//
// Text (one request per line, lockstep):
//
//	GET <key>            -> VALUE <value> | NOTFOUND
//	PUT <key> <value>    -> OK
//	DEL <key>            -> OK | NOTFOUND
//	SCAN                 -> COUNT <n>
//	SPIN <micros>        -> OK            (synthetic spin request)
//	STATS                -> lifetime counters + live queue depths
//	OBS ON|OFF           -> OK            (append |OBS latency-breakdown
//	                                       trailers to this connection's
//	                                       responses; needs -obs)
//	TRACE <n>            -> last n request timelines, terminated by END
//
// Binary (length-prefixed frames, pipelined): the same data ops framed
// with a request id, many in flight per connection, responses coalesced
// into batched flushes and matched by id — the massive-fan-in path.
// concord-load drives it with -proto binary.
//
// With -obs ADDR the server also serves HTTP on ADDR: /metrics is
// Prometheus text exposition of all counters, queue depths, per-op
// latency-component histograms (including the wire phases ingress and
// egress), the connection-layer families (frames, flush batches with
// p50/p99, pipeline depth), the Go runtime health families
// (concord_go_*: GC pauses, scheduler latencies, goroutines, heap), and
// a concord_build_info gauge; /healthz answers 200 ok while serving and
// 503 draining once shutdown begins; /debug/pprof/* is net/http/pprof.
// The same flag enables the in-process lifecycle tracer that backs
// TRACE and the |OBS trailers — with -obs the tracer also follows each
// request across the wire path (frame read, parse, flush), so
// breakdowns partition the full wire-to-wire time — and without it
// tracing costs one branch per event.
//
// -obs and -classes each turn on time-windowed tail
// tracking: rolling p50/p99/p99.9 latency over 1s/10s/60s horizons and
// SLO error-budget accounting against -slotarget (99.9% objective) with
// Google-SRE-style multi-window (5m+1h) burn rates. Both surface as
// gauges on /metrics (concord_rolling_latency_us, concord_slo_*) and as
// STATS fields (p50_1s=..., burn_short=, burn_long=, slo_alerting=).
//
// The runtime carries no completion sink: one observer (observe.go),
// set as the connection layer's completion hook whenever -obs, -classes
// or -shadow configures a sink, feeds the tail and SLO trackers, the
// per-class service-time sketches, the shadow capture ring and the
// per-op component sketches from each response.
//
// Every number the server reports is registered once (metrics.go) and
// rendered twice from that table — /metrics and the STATS line — from
// one snapshot of the server's counters per render; a STATS field is
// present exactly when its source is configured.
//
// Failure responses are single tokens clients can branch on: DEADLINE
// (request timeout exceeded), OVERLOADED (submit queue full), STOPPED
// (server draining), TOOLARGE (request over -maxreq), or ERR <msg> for
// everything else. Binary responses carry the equivalent status byte.
//
// On SIGINT/SIGTERM the server stops accepting, drains in-flight
// requests (bounded by -drain), answers late requests with STOPPED, and
// exits cleanly.
//
// Flags choose worker count, quantum, JBSQ depth, and work conservation;
// defaults mirror the paper's Concord configuration scaled to small
// machines. -shards splits the dispatcher into N shards, each owning a
// disjoint worker subset with its own central queue (idle shards steal
// never-started requests from the longest sibling queue), and -policy
// picks the central-queue discipline: fcfs, or srpt ordered by each
// op's service-time estimate (SPIN hints its requested duration).
// Per-shard queue depth and occupancy surface as
// concord_shard_queue_depth / concord_shard_occupancy gauges and as the
// shardq=/shardocc= STATS fields; cross-shard migrations count in
// concord_steals_total / steals=.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"concord/internal/kv"
	"concord/internal/live"
	"concord/internal/netsrv"
	"concord/internal/obs"
	"concord/internal/policy"
	"concord/internal/shadow"
)

// traceRingEvents is the per-writer trace ring capacity with -obs.
const traceRingEvents = 4096

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:7070", "listen address")
		workers    = flag.Int("workers", 2, "worker threads")
		quantum    = flag.Duration("quantum", 200*time.Microsecond, "scheduling quantum (0 disables preemption)")
		bound      = flag.Int("k", 2, "JBSQ queue bound")
		shards     = flag.Int("shards", 1, "dispatcher shards, each owning a disjoint worker subset (clamped to [1,workers])")
		policyName = flag.String("policy", live.PolicyFCFS, "central-queue discipline: fcfs, srpt (ordered by per-op service hints), cascade, or cascade-srpt (strict SLO-class tiers, fcfs/srpt within each tier)")
		keys       = flag.Int("keys", 15000, "pre-populated unique keys (paper: 15,000)")
		valSize    = flag.Int("valsize", 64, "value size in bytes")
		scanStep   = flag.Int("scanbatch", 256, "keys per scan batch between preemption polls")
		maxReq     = flag.Int("maxreq", 1<<20, "maximum request size in bytes (binary frame body or text line); larger requests answer TOOLARGE")
		reqTimeout = flag.Duration("reqtimeout", 0, "per-request deadline; expired requests answer DEADLINE (0 disables)")
		drain      = flag.Duration("drain", 5*time.Second, "graceful-drain bound on shutdown (0 waits for all in-flight)")
		wtimeout   = flag.Duration("wtimeout", 5*time.Second, "per-response connection write deadline; a connection that sends nothing for 12 times as long is closed (0 disables both)")
		obsAddr    = flag.String("obs", "", "serve Prometheus /metrics and /debug/pprof on this address and enable lifecycle tracing (empty disables)")
		traceDump  = flag.String("tracedump", "", "on shutdown, write the trace rings as Chrome trace_event JSON (Perfetto-loadable) to this file; needs -obs")
		sloTarget  = flag.Duration("slotarget", 200*time.Microsecond, "SLO latency target: requests served within it count good against a 99.9% objective (0 disables SLO tracking)")
		shadowOn   = flag.Bool("shadow", false, "run the counterfactual shadow replayer: sample completed requests and periodically replay them through the deterministic simulator under fcfs, srpt-on-hints, and oracle-srpt, publishing per-policy regret (SHADOW verb, regret_* STATS fields, concord_regret_* metrics)")
		shadowInt  = flag.Duration("shadow-interval", time.Second, "shadow replay period (needs -shadow)")
		shadowRate = flag.Int("shadow-rate", 16, "capture 1 in N completed requests for shadow replay (needs -shadow)")
		shadowDump = flag.String("shadowdump", "", "on shutdown, write the shadow replayer's window history as JSON to this file (needs -shadow)")
		classes    = flag.Bool("classes", false, "enable SLO-class multi-tenancy: per-class admission (reserved critical capacity, sheddable shed first with SHED), per-class tail/SLO accounting, and class-aware preemption")
	)
	flag.Parse()

	if !live.ValidPolicy(*policyName) {
		log.Fatalf("-policy: unknown discipline %q (have %s)", *policyName, strings.Join(policy.Names(), ", "))
	}
	// The server clamps Shards to [1,Workers]; mirror that here so the
	// tracer's ring layout matches the shard count live actually uses.
	effShards := *shards
	if effShards < 1 {
		effShards = 1
	}
	if *workers > 0 && effShards > *workers {
		effShards = *workers
	}

	store := kv.New()
	val := strings.Repeat("v", *valSize)
	for i := 0; i < *keys; i++ {
		store.Put([]byte(fmt.Sprintf("key%08d", i)), []byte(val))
	}

	ob := &kvObs{deadline: *reqTimeout}
	if *obsAddr != "" {
		ob.tracer = obs.NewTracerSharded(*workers, effShards, traceRingEvents)
	}
	// The tail trackers feed the obs surface and the per-class SLO
	// accounting, so either flag brings them up; the class trackers let
	// each class measure against its own latency objective. The
	// per-class service-time sketches feed the svc_time/hint-error
	// metric families, the capture ring the shadow replayer. observe
	// feeds all of them from netsrv's completion hook.
	if *obsAddr != "" || *classes {
		var slo *obs.SLOTracker
		if *sloTarget > 0 {
			slo = obs.NewSLOTracker(*sloTarget)
		}
		ob.tail, ob.classes = obs.NewTailTracker(nil, slo), newClassTrackers()
	}
	if *obsAddr != "" || *shadowOn {
		ob.sketches = obs.NewClassSketches(live.NumClasses)
	}
	if *shadowOn {
		ob.ring = shadow.NewCaptureRing(4096, *shadowRate)
	}
	ob.srv = live.New(&netsrv.KVHandler{Store: store, ScanBatch: *scanStep}, live.Options{
		Workers:        *workers,
		Shards:         effShards,
		Policy:         *policyName,
		Quantum:        *quantum,
		QueueBound:     *bound,
		RequestTimeout: *reqTimeout,
		DrainTimeout:   *drain,
		Tracer:         ob.tracer,
		ClassAdmission: *classes,
	})
	ob.srv.Start()

	if *shadowOn {
		ob.replayer = shadow.NewReplayer(ob.ring, shadow.Config{
			Workers:    *workers,
			QuantumUS:  float64(*quantum) / float64(time.Microsecond),
			QueueBound: *bound,
		}, *shadowInt)
		ob.replayer.Start()
		log.Printf("shadow replay: 1-in-%d capture, %v windows, policies %s",
			*shadowRate, *shadowInt, strings.Join(shadow.Policies(), "/"))
	}

	nopts := netsrv.Options{
		MaxReq:       *maxReq,
		WriteTimeout: *wtimeout,
		Tracer:       ob.tracer,
		Control:      ob.control,
	}
	if *obsAddr != "" || *classes || *shadowOn {
		nopts.Observe = ob.observe
	}
	if ob.tracer != nil {
		nopts.ObserveEgress = ob.observeEgress
		nopts.Trailer = obsTrailer
	}
	ob.ns = netsrv.New(ob.srv, nopts)
	ob.register()

	// draining flips before the listener closes so /healthz readiness
	// goes false the moment the drain begins, not after it completes.
	var draining atomic.Bool
	if *obsAddr != "" {
		obsLn, err := net.Listen("tcp", *obsAddr)
		if err != nil {
			log.Fatalf("obs listen: %v", err)
		}
		http.Handle("/metrics", &ob.metrics)
		http.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
			if draining.Load() {
				http.Error(w, "draining", http.StatusServiceUnavailable)
				return
			}
			io.WriteString(w, "ok\n")
		})
		go func() {
			if err := http.Serve(obsLn, nil); err != nil {
				log.Printf("obs server: %v", err)
			}
		}()
		log.Printf("obs: metrics+pprof+healthz on %s, trace rings %d events/writer", obsLn.Addr(), traceRingEvents)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	log.Printf("concord-kvd on %s: %d workers, %d shards, policy %s, quantum %v, JBSQ(%d), %d keys, maxreq %d",
		ln.Addr(), *workers, effShards, *policyName, *quantum, *bound, *keys, *maxReq)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		log.Printf("received %v: draining (bound %v)", sig, *drain)
		draining.Store(true) // /healthz reports not-ready from here on
		ln.Close()           // unblocks Accept; Serve returns and the drain begins
	}()

	ob.ns.Serve(ln)

	if ob.replayer != nil {
		ob.replayer.Stop() // periodic loop off; the final window scores below
	}
	// Drain: complete every accepted request (bounded by -drain; late
	// submissions answer STOPPED), then give connection readers a short
	// grace window — requests already in flight from clients get a
	// STOPPED response instead of a connection reset — and wait for
	// them to finish writing their final responses.
	ob.srv.Stop()
	ob.ns.Drain(200 * time.Millisecond)
	st := ob.srv.Stats()
	nst := ob.ns.NetStats()
	log.Printf("drained: submitted=%d completed=%d rejected=%d expired=%d aborted=%d frames_in=%d frames_out=%d flushes=%d",
		st.Submitted, st.Completed, st.Rejected, st.Expired, st.Aborted, nst.FramesIn, nst.FramesOut, nst.Flushes)
	if ob.tracer != nil {
		writeDump("tracedump", *traceDump, func(w io.Writer) (string, error) {
			events := ob.tracer.Snapshot()
			return fmt.Sprintf("%d events (open in https://ui.perfetto.dev)", len(events)), obs.WriteChromeTrace(w, events)
		})
	}
	if ob.replayer != nil {
		// Score whatever the capture ring still holds so short runs and
		// the shutdown dump see at least one window.
		ob.replayer.ReplayOnce()
		writeDump("shadowdump", *shadowDump, func(w io.Writer) (string, error) {
			windows, skipped := ob.replayer.Counts()
			return fmt.Sprintf("%d windows (%d skipped)", windows, skipped), ob.replayer.WriteDump(w)
		})
	}
}

// writeDump writes one shutdown artefact to path (skipped when the flag
// is unset): create, write, close, and log what was written. Any
// failure is fatal — the operator asked for the file.
func writeDump(flagName, path string, write func(io.Writer) (what string, err error)) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatalf("%s: %v", flagName, err)
	}
	what, err := write(f)
	if err == nil {
		err = f.Close()
	}
	if err != nil {
		log.Fatalf("%s: %v", flagName, err)
	}
	log.Printf("%s: wrote %s to %s", flagName, what, path)
}

// obsTrailer renders the per-request breakdown clients opt into with
// OBS ON. Times are µs; i is ingress (frame read → runtime submit), e
// is egress accrued so far (completion → trailer render, in netsrv's
// completion callback — the trailer rides inside the response, so the
// flusher's wake-up and the socket write cannot be in it; the egress
// histograms have those), n is the preemption count, d=1 when the
// work-conserving dispatcher ran the request. The wire phases print at
// %.3f: they are routinely sub-µs and would round to an
// indistinguishable 0.0.
func obsTrailer(resp live.Response) string {
	b := resp.Breakdown
	if b == nil {
		return ""
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	disp := 0
	if resp.OnDispatcher {
		disp = 1
	}
	egress := 0.0
	if !resp.Done.IsZero() {
		egress = us(live.Now().Sub(resp.Done))
	}
	return fmt.Sprintf(" |OBS h=%.1f q=%.1f s=%.1f p=%.1f i=%.3f e=%.3f n=%d d=%d",
		us(b.Handoff), us(b.Queue), us(b.Service), us(b.Preempted),
		us(b.Ingress), egress, resp.Preemptions, disp)
}

// control handles the non-request text commands (STATS, OBS, and the
// listing verbs SHADOW / TRACE); it reports whether the
// line was one of them. netsrv calls it for any text line the data
// protocol does not recognize.
func (ob *kvObs) control(out io.Writer, line string, obsOn *bool) bool {
	switch line {
	case "STATS":
		fmt.Fprintf(out, "STATS %s\n", ob.metrics.StatsLine())
		return true
	case "OBS ON":
		if ob.tracer == nil {
			fmt.Fprintln(out, "ERR tracing disabled (start with -obs)")
			return true
		}
		*obsOn = true
		fmt.Fprintln(out, "OK")
		return true
	case "OBS OFF":
		*obsOn = false
		fmt.Fprintln(out, "OK")
		return true
	}
	// Listing verbs: "VERB [n]" streams the last n entries (a default
	// count when omitted), one per line, terminated by "END <printed>".
	for _, v := range []struct {
		verb     string
		count    int
		enabled  bool
		disabled string
		list     func(n int) int
	}{
		{"SHADOW", 5, ob.replayer != nil, "shadow replay disabled (start with -shadow)", func(n int) int {
			results := ob.replayer.Results(n)
			for i := range results {
				fmt.Fprintln(out, results[i].String())
			}
			return len(results)
		}},
		{"TRACE", 10, ob.tracer != nil, "tracing disabled (start with -obs)", func(n int) int {
			return obs.WriteTimelines(out, ob.tracer.Snapshot(), n)
		}},
	} {
		arg, ok := strings.CutPrefix(line, v.verb)
		if !ok || (arg != "" && arg[0] != ' ') {
			continue
		}
		if !v.enabled {
			fmt.Fprintf(out, "ERR %s\n", v.disabled)
			return true
		}
		n := v.count
		if arg = strings.TrimSpace(arg); arg != "" {
			var err error
			if n, err = strconv.Atoi(arg); err != nil || n <= 0 {
				fmt.Fprintf(out, "ERR bad %s count %q\n", v.verb, arg)
				return true
			}
		}
		fmt.Fprintf(out, "END %d\n", v.list(n))
		return true
	}
	return false
}
