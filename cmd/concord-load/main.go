// Command concord-load is an open-loop Poisson load generator for
// concord-kvd, in the style of the paper's client (§5.1): requests
// arrive on a Poisson process regardless of completions, latency is
// measured end to end, and the report shows slowdown percentiles
// (sojourn over intended service time) plus a latency histogram.
//
// Workload mixes mirror §5.3:
//
//	-mix 5050   50% GET, 50% SCAN
//	-mix zippy  78% GET, 13% PUT, 6% DEL, 3% SCAN
//	-mix get    100% GET
//	-mix spin   synthetic spins, bimodal 99.5% x 5µs / 0.5% x 500µs
//
// -class stamps an SLO class on every request (a fixed class or a
// weighted mix like critical:1,standard:6,sheddable:3): text requests
// gain an '@class' token, binary requests ride the v2 class frame, and
// every per-class report splits by "sloclass/opclass". SHED replies —
// sheddable work dropped by class admission — are counted apart from
// hard failures. -arrivals picks the interarrival process: poisson
// (CV=1), gamma (CV≈2.0 bursts), or bimodal on/off phases at the same
// mean rate.
//
// By default requests ride the text protocol, one lockstep request per
// pooled connection. With -proto binary each connection instead streams
// pipelined binary frames, keeping -pipeline requests in flight and
// matching out-of-order responses by request id — the same path
// concord-kvd's fan-in layer is built for, at a fraction of the
// per-request syscall and allocation cost.
//
// With -breakdown (server started with -obs) every response carries a
// server-measured latency decomposition; the report adds a
// Table-1-style per-class component table (p50/p99/p99.9 of queueing,
// service, preemption, hand-off, plus the wire phases ingress and
// egress), a client-vs-server latency-gap table attributing the
// difference between client-measured sojourn and the server's
// wire-to-wire total to the network and client scheduling, and the CSV
// gains component columns.
//
// With -statsevery a side connection polls the server's STATS line and
// records per-shard queue depth and occupancy plus the cross-shard
// steal counter: -statscsv writes the time series (one shardq/shardocc
// column per shard) and -summaryjson gains a shard_depths section.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"concord/internal/obs"
	"concord/internal/proto"
)

// failures tallies unsuccessful requests by kind; incremented from
// per-request goroutines. Shed requests (class admission dropping
// sheddable work under overload) are counted apart from hard failures:
// they are the multi-tenancy design working, not the server failing.
type failures struct {
	deadline   atomic.Int64 // server replied DEADLINE
	overloaded atomic.Int64 // server replied OVERLOADED
	stopped    atomic.Int64 // server replied STOPPED
	shed       atomic.Int64 // server replied SHED (sheddable class dropped)
	other      atomic.Int64 // transport errors and ERR replies
	logged     atomic.Int64
}

func (f *failures) total() int64 {
	return f.deadline.Load() + f.overloaded.Load() + f.stopped.Load() + f.shed.Load() + f.other.Load()
}

// record classifies one failed request; the first few are logged.
func (f *failures) record(err error, resp string) {
	switch {
	case err == nil && strings.HasPrefix(resp, "DEADLINE"):
		f.deadline.Add(1)
	case err == nil && strings.HasPrefix(resp, "OVERLOADED"):
		f.overloaded.Add(1)
	case err == nil && strings.HasPrefix(resp, "STOPPED"):
		f.stopped.Add(1)
	case err == nil && strings.HasPrefix(resp, "SHED"):
		f.shed.Add(1)
		return // shedding is expected under overload; don't spam the log
	default:
		f.other.Add(1)
	}
	if f.logged.Add(1) <= 5 {
		log.Printf("request failed: %v %s", err, strings.TrimSpace(resp))
	}
}

// failed reports whether a reply line is a failure token.
func failed(resp string) bool {
	return strings.HasPrefix(resp, "ERR") ||
		strings.HasPrefix(resp, "DEADLINE") ||
		strings.HasPrefix(resp, "OVERLOADED") ||
		strings.HasPrefix(resp, "STOPPED") ||
		strings.HasPrefix(resp, "SHED")
}

// op is one generated request in both wire forms: line is the text
// protocol rendering, code/key/val/spinUS the binary frame fields. slo
// is the SLO class byte (0 = standard/classless, matching the wire
// default) stamped by the -class picker after the mix generates the op.
type op struct {
	line      string
	class     string
	serviceUS float64
	code      byte
	key, val  []byte
	spinUS    uint32
	slo       byte
}

type mixer func(r *rand.Rand) op

func mixFor(name string, keys int) (mixer, error) {
	key := func(r *rand.Rand) string {
		return fmt.Sprintf("key%08d", r.Intn(keys))
	}
	get := func(k string) op {
		return op{line: "GET " + k, class: "GET", serviceUS: 1, code: proto.OpGet, key: []byte(k)}
	}
	scan := op{line: "SCAN", class: "SCAN", serviceUS: 2000, code: proto.OpScan}
	switch name {
	case "5050":
		return func(r *rand.Rand) op {
			if r.Intn(2) == 0 {
				return get(key(r))
			}
			return scan
		}, nil
	case "zippy":
		val := strings.Repeat("w", 64)
		return func(r *rand.Rand) op {
			switch v := r.Float64(); {
			case v < 0.78:
				return get(key(r))
			case v < 0.91:
				k := key(r)
				return op{line: "PUT " + k + " " + val, class: "PUT", serviceUS: 3,
					code: proto.OpPut, key: []byte(k), val: []byte(val)}
			case v < 0.97:
				k := key(r)
				return op{line: "DEL " + k, class: "DEL", serviceUS: 3, code: proto.OpDel, key: []byte(k)}
			default:
				return scan
			}
		}, nil
	case "get":
		return func(r *rand.Rand) op {
			return get(key(r))
		}, nil
	case "spin":
		short := op{line: "SPIN 5", class: "short", serviceUS: 5, code: proto.OpSpin, spinUS: 5}
		long := op{line: "SPIN 500", class: "long", serviceUS: 500, code: proto.OpSpin, spinUS: 500}
		return func(r *rand.Rand) op {
			if r.Float64() < 0.995 {
				return short
			}
			return long
		}, nil
	default:
		return nil, fmt.Errorf("unknown mix %q", name)
	}
}

// sloClasses maps -class names to wire class bytes: the v2 binary
// frame's class field and the '@name' text token. Values mirror
// internal/live.SLOClass (standard is the zero value, so standard
// requests still ride the v1 frame).
var sloClasses = map[string]byte{"standard": 0, "critical": 1, "sheddable": 2}

// classPickerFor parses the -class spec into a per-request picker.
// A bare class name pins every request to that class; a weighted list
// like "critical:1,standard:6,sheddable:3" draws each request's class
// proportionally. Empty spec returns nil: requests stay classless.
func classPickerFor(spec string) (func(r *rand.Rand) (string, byte), error) {
	if spec == "" {
		return nil, nil
	}
	type entry struct {
		name   string
		code   byte
		weight float64
	}
	var entries []entry
	var total float64
	for _, part := range strings.Split(spec, ",") {
		name, w, weighted := strings.Cut(strings.TrimSpace(part), ":")
		code, ok := sloClasses[name]
		if !ok {
			return nil, fmt.Errorf("-class: unknown SLO class %q (have critical, standard, sheddable)", name)
		}
		weight := 1.0
		if weighted {
			v, err := strconv.ParseFloat(w, 64)
			if err != nil || v < 0 {
				return nil, fmt.Errorf("-class: bad weight %q for %s", w, name)
			}
			weight = v
		}
		entries = append(entries, entry{name, code, weight})
		total += weight
	}
	if total <= 0 {
		return nil, fmt.Errorf("-class: weights sum to zero")
	}
	return func(r *rand.Rand) (string, byte) {
		v := r.Float64() * total
		for _, e := range entries {
			if v -= e.weight; v < 0 {
				return e.name, e.code
			}
		}
		last := entries[len(entries)-1]
		return last.name, last.code
	}, nil
}

// arrivalsFor builds the interarrival-gap generator for -arrivals. All
// three processes offer the same mean rate; they differ in burstiness:
//
//	poisson  exponential gaps, CV = 1 (the open-loop baseline)
//	gamma    gamma-distributed gaps with CV ≈ 2.0 (shape k = 1/CV² =
//	         0.25): heavy clustering with long lulls, the classic
//	         "bursty datacenter arrivals" stressor
//	bimodal  on/off phases — 200ms bursts at 4× the rate alternating
//	         with 800ms valleys at 0.25×, preserving the mean
//	         (0.2·4 + 0.8·0.25 = 1)
//
// The returned closure is stateful (bimodal tracks its phase) and must
// be called from a single goroutine — which the arrival loop is.
func arrivalsFor(name string, rate float64) (func(r *rand.Rand) time.Duration, error) {
	meanGap := float64(time.Second) / rate
	switch name {
	case "poisson":
		return func(r *rand.Rand) time.Duration {
			return time.Duration(r.ExpFloat64() * meanGap)
		}, nil
	case "gamma":
		const shape = 0.25 // CV = 1/sqrt(k) = 2.0
		scale := meanGap / shape
		return func(r *rand.Rand) time.Duration {
			return time.Duration(sampleGamma(r, shape) * scale)
		}, nil
	case "bimodal":
		const (
			onDur, offDur   = 200 * time.Millisecond, 800 * time.Millisecond
			onMult, offMult = 4.0, 0.25
		)
		phaseLeft, on := onDur, true
		return func(r *rand.Rand) time.Duration {
			mult := offMult
			if on {
				mult = onMult
			}
			gap := time.Duration(r.ExpFloat64() * meanGap / mult)
			phaseLeft -= gap
			for phaseLeft <= 0 {
				on = !on
				if on {
					phaseLeft += onDur
				} else {
					phaseLeft += offDur
				}
			}
			return gap
		}, nil
	default:
		return nil, fmt.Errorf("-arrivals: unknown process %q (have poisson, gamma, bimodal)", name)
	}
}

// sampleGamma draws from Gamma(shape k, scale 1) via Marsaglia–Tsang
// (2000). Their method needs k ≥ 1; for k < 1 it draws Gamma(k+1) and
// applies the standard U^(1/k) boost.
func sampleGamma(r *rand.Rand, k float64) float64 {
	if k < 1 {
		return sampleGamma(r, k+1) * math.Pow(r.Float64(), 1/k)
	}
	d := k - 1.0/3
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x || math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7070", "server address")
		rate     = flag.Float64("rate", 2000, "offered load, requests/second")
		duration = flag.Duration("duration", 10*time.Second, "run length")
		conns    = flag.Int("conns", 16, "connection pool size (max in-flight is conns, or conns*pipeline with -proto binary)")
		protoOpt = flag.String("proto", "text", "wire protocol: text (lockstep lines) or binary (pipelined frames)")
		pipeline = flag.Int("pipeline", 16, "per-connection pipeline depth (binary protocol only)")
		mix      = flag.String("mix", "zippy", "workload mix: 5050, zippy, get, spin")
		classes  = flag.String("class", "", "SLO class per request: a class name (critical, standard, sheddable) or a weighted mix like critical:1,standard:6,sheddable:3; empty sends classless (standard) requests")
		arrivals = flag.String("arrivals", "poisson", "interarrival process: poisson (CV=1), gamma (bursty, CV=2.0), bimodal (200ms 4x bursts / 800ms 0.25x valleys)")
		keys     = flag.Int("keys", 15000, "key space (must match the server)")
		seed     = flag.Int64("seed", 1, "random seed")
		csvPath  = flag.String("csv", "", "write per-request records to this CSV file")
		warmup   = flag.Float64("warmup", 0.1, "fraction of samples to discard")
		brkdown  = flag.Bool("breakdown", false, "request per-request latency breakdowns (server must run with -obs) and print a per-component table")
		sumJSON  = flag.String("summaryjson", "", "write the end-of-run summary as JSON to this file (machine-readable mirror of the stdout report)")
		statsEvr = flag.Duration("statsevery", 0, "poll server STATS on a side connection at this interval: per-shard depths and steals (0 disables)")
		statsCSV = flag.String("statscsv", "", "write the polled STATS depth time series as CSV, one shardq/shardocc column per shard (needs -statsevery)")
	)
	flag.Parse()
	if *statsCSV != "" && *statsEvr <= 0 {
		log.Fatal("-statscsv needs -statsevery")
	}

	gen, err := mixFor(*mix, *keys)
	if err != nil {
		log.Fatal(err)
	}
	pickClass, err := classPickerFor(*classes)
	if err != nil {
		log.Fatal(err)
	}
	nextGap, err := arrivalsFor(*arrivals, *rate)
	if err != nil {
		log.Fatal(err)
	}

	lg := NewLog(int(*rate * duration.Seconds()))
	var hist obs.QuantileSketch
	var fails failures

	// Launch path: the text pool lends one lockstep connection per
	// request; the binary fleet lends one pipeline slot. Either way a
	// free lease is required to launch, so pool exhaustion means offered
	// load exceeds capacity and shows up as queueing at the generator,
	// like a saturated NIC.
	var pool chan *bufio.ReadWriter
	var fleet *binFleet
	switch *protoOpt {
	case "text":
		pool = make(chan *bufio.ReadWriter, *conns)
		for i := 0; i < *conns; i++ {
			c, err := net.Dial("tcp", *addr)
			if err != nil {
				log.Fatalf("dial %s: %v", *addr, err)
			}
			defer c.Close()
			rw := bufio.NewReadWriter(bufio.NewReader(c), bufio.NewWriter(c))
			if *brkdown {
				// Opt this connection into |OBS latency-breakdown trailers.
				fmt.Fprintf(rw, "OBS ON\n")
				rw.Flush()
				resp, err := rw.ReadString('\n')
				if err != nil || !strings.HasPrefix(resp, "OK") {
					log.Fatalf("-breakdown needs a server started with -obs: OBS ON replied %q, %v",
						strings.TrimSpace(resp), err)
				}
			}
			pool <- rw
		}
	case "binary":
		if *brkdown {
			log.Fatal("-breakdown needs -proto text (|OBS trailers are text-only)")
		}
		if *pipeline < 1 {
			log.Fatal("-pipeline must be at least 1")
		}
		var err error
		fleet, err = dialBinary(*addr, *conns, *pipeline, lg, &hist, &fails)
		if err != nil {
			log.Fatal(err)
		}
		defer fleet.close()
	default:
		log.Fatalf("-proto: unknown protocol %q (have text, binary)", *protoOpt)
	}

	var poller *statsPoller
	if *statsEvr > 0 {
		poller = startStatsPoller(*addr, *statsEvr)
	}

	rng := rand.New(rand.NewSource(*seed))
	deadline := time.Now().Add(*duration)
	launched := 0
	done := make(chan struct{}, 1<<16)
	inflight := 0

	for time.Now().Before(deadline) {
		// Open-loop arrivals: gaps from the -arrivals process at the
		// offered mean rate, regardless of completions.
		time.Sleep(nextGap(rng))
		o := gen(rng)
		if pickClass != nil {
			// Stamp the SLO class on both wire forms and prefix the
			// record label so every per-class table (breakdown, gap,
			// -summaryjson classes) splits by SLO class too.
			name, code := pickClass(rng)
			o.slo = code
			o.line = "@" + name + " " + o.line
			o.class = name + "/" + o.class
		}
		if fleet != nil {
			fleet.launch(o) // blocks when every pipeline slot is in flight
			launched++
			continue
		}
		rw := <-pool // blocks when all connections are busy
		launched++
		inflight++
		go func(o op, rw *bufio.ReadWriter, start time.Time) {
			defer func() { pool <- rw; done <- struct{}{} }()
			fmt.Fprintf(rw, "%s\n", o.line)
			rw.Flush()
			resp, err := rw.ReadString('\n')
			lat := time.Since(start)
			if err != nil || failed(resp) {
				fails.record(err, resp)
				return
			}
			r := Record{
				Class:     o.class,
				ServiceUS: o.serviceUS,
				SojournUS: float64(lat) / float64(time.Microsecond),
			}
			if b, ok := parseObsTrailer(resp); ok {
				r.HasBreakdown = true
				r.HandoffUS, r.QueueUS, r.RunUS, r.PreemptedUS = b.handoff, b.queue, b.service, b.preempted
				r.IngressUS, r.EgressUS = b.ingress, b.egress
				r.Preemptions, r.OnDispatcher = b.preempts, b.dispatcher
			}
			lg.Add(r)
			hist.Observe(int64(lat))
		}(o, rw, time.Now())
		// Reap completions without blocking the arrival process.
		for {
			select {
			case <-done:
				inflight--
				continue
			default:
			}
			break
		}
	}
	if fleet != nil {
		fleet.drain()
	}
	for inflight > 0 {
		<-done
		inflight--
	}

	var depthSamples []statsSample
	if poller != nil {
		samples, err := poller.finish()
		if err != nil {
			log.Printf("stats poller: %v (depth series dropped)", err)
		}
		depthSamples = samples
	}

	all := lg.Snapshot()
	skip := int(*warmup * float64(len(all)))
	steady := NewLog(len(all) - skip)
	for _, r := range all[skip:] {
		steady.Add(r)
	}
	sum := steady.Summarize()
	completed := len(all)
	nfail := fails.total()
	// Achieved throughput counts only completed requests: failures got
	// no service, and counting them overstated capacity.
	achieved := float64(completed) / duration.Seconds()
	fmt.Printf("offered %.0f rps, launched %d, completed %d (%.0f rps achieved), failed %d\n",
		*rate, launched, completed, achieved, nfail)
	if nfail > 0 {
		fmt.Printf("failures: deadline=%d overloaded=%d stopped=%d shed=%d other=%d\n",
			fails.deadline.Load(), fails.overloaded.Load(), fails.stopped.Load(),
			fails.shed.Load(), fails.other.Load())
	}
	fmt.Printf("steady-state: %s\n", sum)
	if !math.IsNaN(sum.P999) {
		fmt.Printf("p99.9 slowdown %.1fx %s the 50x SLO\n", sum.P999, meets(sum.P999))
	}
	printHistogram(os.Stdout, hist.Snapshot())
	if *brkdown {
		printBreakdown(steady.Snapshot())
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		// The CSV gets the same warmup discard as the printed summary,
		// so offline analysis matches the report.
		if err := steady.WriteCSV(f); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d records to %s (%d warmup samples discarded)\n", steady.Len(), *csvPath, skip)
	}
	if *statsCSV != "" && len(depthSamples) > 0 {
		f, err := os.Create(*statsCSV)
		if err != nil {
			log.Fatal(err)
		}
		if err := writeStatsCSV(f, depthSamples); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d depth samples to %s\n", len(depthSamples), *statsCSV)
	}
	if ds := summarizeShardDepths(depthSamples); ds != nil {
		fmt.Printf("server depths over %d samples: central mean %.1f max %d, steals %d, per-shard q mean %v\n",
			ds.Samples, ds.CentralMean, ds.CentralMax, ds.Steals, ds.ShardQMean)
	}
	if *sumJSON != "" {
		s := runSummary{
			Schema:          1,
			Mix:             *mix,
			ClassSpec:       *classes,
			Arrivals:        *arrivals,
			DurationSec:     duration.Seconds(),
			OfferedRPS:      *rate,
			AchievedRPS:     achieved,
			Launched:        launched,
			Completed:       completed,
			WarmupDiscarded: skip,
			Failed: failCounts{
				Deadline:   fails.deadline.Load(),
				Overloaded: fails.overloaded.Load(),
				Stopped:    fails.stopped.Load(),
				Shed:       fails.shed.Load(),
				Other:      fails.other.Load(),
			},
			Steady: steadyStats{
				Count:           sum.Count,
				P50Slowdown:     sum.P50,
				P90Slowdown:     sum.P90,
				P99Slowdown:     sum.P99,
				P999Slowdown:    sum.P999,
				MeanSlowdown:    sum.MeanSlowdown,
				MeanSojournUS:   sum.MeanSojournUS,
				MeanPreemptions: sum.MeanPreemptions,
				DispatcherFrac:  sum.DispatcherFrac,
			},
			Classes:     classStats(steady.Snapshot()),
			ShardDepths: summarizeShardDepths(depthSamples),
		}
		if err := writeSummaryJSON(*sumJSON, s); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote summary to %s\n", *sumJSON)
	}
}

// runSummary is the -summaryjson schema (version 1): the stdout report
// in machine-readable form. Latency statistics carry the same warmup
// discard as the printed steady-state summary.
type runSummary struct {
	Schema int    `json:"schema"`
	Mix    string `json:"mix"`
	// ClassSpec and Arrivals echo -class and -arrivals (additive;
	// schema stays 1). Class-stamped runs also split the classes section by
	// SLO class, keyed "sloclass/opclass".
	ClassSpec       string               `json:"class,omitempty"`
	Arrivals        string               `json:"arrivals"`
	DurationSec     float64              `json:"duration_sec"`
	OfferedRPS      float64              `json:"offered_rps"`
	AchievedRPS     float64              `json:"achieved_rps"`
	Launched        int                  `json:"launched"`
	Completed       int                  `json:"completed"`
	WarmupDiscarded int                  `json:"warmup_discarded"`
	Failed          failCounts           `json:"failed"`
	Steady          steadyStats          `json:"steady"`
	Classes         map[string]classStat `json:"classes"`
	// ShardDepths is present when -statsevery polled the server: the
	// per-shard depth series condensed (additive; schema stays 1).
	ShardDepths *shardDepthStats `json:"shard_depths,omitempty"`
}

type failCounts struct {
	Deadline   int64 `json:"deadline"`
	Overloaded int64 `json:"overloaded"`
	Stopped    int64 `json:"stopped"`
	Shed       int64 `json:"shed"`
	Other      int64 `json:"other"`
}

type steadyStats struct {
	Count           int     `json:"count"`
	P50Slowdown     float64 `json:"p50_slowdown"`
	P90Slowdown     float64 `json:"p90_slowdown"`
	P99Slowdown     float64 `json:"p99_slowdown"`
	P999Slowdown    float64 `json:"p999_slowdown"`
	MeanSlowdown    float64 `json:"mean_slowdown"`
	MeanSojournUS   float64 `json:"mean_sojourn_us"`
	MeanPreemptions float64 `json:"mean_preemptions"`
	DispatcherFrac  float64 `json:"dispatcher_frac"`
}

type classStat struct {
	Count  int     `json:"count"`
	P50US  float64 `json:"p50_us"`
	P99US  float64 `json:"p99_us"`
	P999US float64 `json:"p999_us"`
	MeanUS float64 `json:"mean_us"`
}

// classStats computes exact per-class sojourn quantiles (sorted
// samples, not histogram buckets — the record set is already in
// memory).
func classStats(recs []Record) map[string]classStat {
	byClass := map[string][]float64{}
	for _, r := range recs {
		byClass[r.Class] = append(byClass[r.Class], r.SojournUS)
	}
	out := make(map[string]classStat, len(byClass))
	for cl, us := range byClass {
		sort.Float64s(us)
		pct := func(p float64) float64 {
			rank := int(math.Ceil(p / 100 * float64(len(us))))
			if rank < 1 {
				rank = 1
			}
			return us[rank-1]
		}
		sum := 0.0
		for _, v := range us {
			sum += v
		}
		out[cl] = classStat{
			Count:  len(us),
			P50US:  pct(50),
			P99US:  pct(99),
			P999US: pct(99.9),
			MeanUS: sum / float64(len(us)),
		}
	}
	return out
}

// writeSummaryJSON writes the summary. NaN/Inf (empty-run percentiles)
// are not representable in JSON and would fail Marshal outright, so
// they are scrubbed to the -1 sentinel.
func writeSummaryJSON(path string, s runSummary) error {
	scrub := func(f *float64) {
		if math.IsNaN(*f) || math.IsInf(*f, 0) {
			*f = -1
		}
	}
	for _, f := range []*float64{
		&s.Steady.P50Slowdown, &s.Steady.P90Slowdown, &s.Steady.P99Slowdown,
		&s.Steady.P999Slowdown, &s.Steady.MeanSlowdown, &s.Steady.MeanSojournUS,
	} {
		scrub(f)
	}
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	return os.WriteFile(path, b, 0o644)
}

func meets(p999 float64) string {
	if p999 <= 50 {
		return "meets"
	}
	return "MISSES"
}

// obsTrailer is one parsed |OBS response suffix (µs components).
type obsTrailer struct {
	handoff, queue, service, preempted float64
	ingress, egress                    float64 // wire phases
	preempts                           int
	dispatcher                         bool
}

// parseObsTrailer extracts the server's breakdown trailer, if present:
//
//	VALUE xyz |OBS h=0.8 q=12.3 s=4.5 p=0.0 i=0.012 e=0.004 n=1 d=0
func parseObsTrailer(resp string) (obsTrailer, bool) {
	i := strings.LastIndex(resp, " |OBS ")
	if i < 0 {
		return obsTrailer{}, false
	}
	var b obsTrailer
	var d int
	_, err := fmt.Sscanf(strings.TrimSpace(resp[i+len(" |OBS "):]),
		"h=%f q=%f s=%f p=%f i=%f e=%f n=%d d=%d",
		&b.handoff, &b.queue, &b.service, &b.preempted, &b.ingress, &b.egress, &b.preempts, &d)
	if err != nil {
		return obsTrailer{}, false
	}
	b.dispatcher = d == 1
	return b, true
}

// printHistogram renders a latency sketch's non-empty octaves with
// proportional bars.
func printHistogram(w io.Writer, snap obs.SketchSnapshot) {
	octaves := snap.Octaves()
	var max uint64
	for _, c := range octaves {
		if c > max {
			max = c
		}
	}
	for k, c := range octaves {
		if c == 0 {
			continue
		}
		lo := math.Ldexp(1, k) / 1e3 // octave k covers [2^k, 2^(k+1)) ns
		bar := strings.Repeat("#", int(math.Ceil(float64(c)/float64(max)*40)))
		fmt.Fprintf(w, "%10.1f-%-10.1fµs %8d %s\n", lo, 2*lo, c, bar)
	}
}

// printBreakdown renders the Table-1-style per-class component table
// from server-measured breakdowns, aggregated into the same sketch the
// server's own surface uses, so the quantiles match what it reports.
func printBreakdown(recs []Record) {
	rows := [...]string{"total", "ingress", "handoff", "queueing", "service", "preempted", "egress"}
	type comps struct {
		rows                [len(rows)]obs.QuantileSketch // ns
		sojournUS, serverUS []float64                     // paired, per request
		preempts, n         int
	}
	byClass := map[string]*comps{}
	var classes []string
	for _, r := range recs {
		if !r.HasBreakdown {
			continue
		}
		c := byClass[r.Class]
		if c == nil {
			c = &comps{}
			byClass[r.Class] = c
			classes = append(classes, r.Class)
		}
		// Server-side wire-to-wire total, so the component rows sum to
		// it; the client-measured sojourn (which adds network +
		// client-side open-loop wait) is in the latency summary above
		// and in the gap table below.
		server := r.HandoffUS + r.QueueUS + r.RunUS + r.PreemptedUS + r.IngressUS + r.EgressUS
		for i, us := range [len(rows)]float64{server, r.IngressUS, r.HandoffUS, r.QueueUS, r.RunUS, r.PreemptedUS, r.EgressUS} {
			c.rows[i].Observe(int64(us * 1e3))
		}
		c.sojournUS = append(c.sojournUS, r.SojournUS)
		c.serverUS = append(c.serverUS, server)
		c.preempts += r.Preemptions
		c.n++
	}
	if len(classes) == 0 {
		fmt.Println("no breakdown data (server not started with -obs?)")
		return
	}
	sort.Strings(classes)
	fmt.Println("component breakdown (µs, from server-side tracing):")
	fmt.Printf("%-15s %-10s %10s %10s %10s %10s\n", "class", "component", "p50", "p99", "p99.9", "mean")
	for _, cl := range classes {
		c := byClass[cl]
		for i, name := range rows {
			s := c.rows[i].Snapshot()
			fmt.Printf("%-15s %-10s %10.1f %10.1f %10.1f %10.1f\n",
				cl, name, s.Quantile(0.50)/1e3, s.Quantile(0.99)/1e3, s.Quantile(0.999)/1e3, s.Mean()/1e3)
		}
		fmt.Printf("%-15s %-10s %10.2f preempts/req over %d requests\n", cl, "preempt", float64(c.preempts)/float64(c.n), c.n)
	}
	// The gap table: what the client measured minus what the server can
	// account for, wire to wire. What remains is the network and the
	// client's own scheduling — if the gap dwarfs the server total, the
	// bottleneck is not in the server at all.
	fmt.Println("client-vs-server latency gap (µs; gap = client sojourn - server wire-to-wire total):")
	fmt.Printf("%-15s %8s %12s %12s %12s %12s %10s %10s\n",
		"class", "n", "client p50", "client p99", "client mean", "server mean", "gap mean", "gap p99")
	for _, cl := range classes {
		c := byClass[cl]
		gaps := make([]float64, len(c.sojournUS))
		var sumClient, sumServer, sumGap float64
		for i := range c.sojournUS {
			gaps[i] = c.sojournUS[i] - c.serverUS[i]
			sumClient += c.sojournUS[i]
			sumServer += c.serverUS[i]
			sumGap += gaps[i]
		}
		sorted := append([]float64(nil), c.sojournUS...)
		sort.Float64s(sorted)
		sort.Float64s(gaps)
		pct := func(v []float64, p float64) float64 {
			rank := int(math.Ceil(p / 100 * float64(len(v))))
			if rank < 1 {
				rank = 1
			}
			return v[rank-1]
		}
		n := float64(c.n)
		fmt.Printf("%-15s %8d %12.1f %12.1f %12.1f %12.1f %10.1f %10.1f\n",
			cl, c.n, pct(sorted, 50), pct(sorted, 99), sumClient/n, sumServer/n,
			sumGap/n, pct(gaps, 99))
	}
}
