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
// hard failures.
//
// Both protocols run one connection loop (fleet.go) behind a
// per-connection window, as concord-kvd serves them: text keeps one
// lockstep request in flight per connection, -proto binary keeps
// -pipeline pipelined frames in flight and matches out-of-order
// responses by request id — the path concord-kvd's fan-in layer is built
// for, at a fraction of the per-request syscall and allocation cost.
//
// With -breakdown (text only; server started with -obs) every response
// carries a server-measured latency decomposition; the report adds a
// Table-1-style per-class component table (p50/p99/p99.9 of queueing,
// service, preemption, hand-off, plus the wire phases ingress and
// egress) and a client-vs-server latency-gap table attributing the
// difference between client-measured sojourn and the server's
// wire-to-wire total to the network and client scheduling.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"concord/internal/obs"
	"concord/internal/proto"
)

// failures tallies unsuccessful requests by kind; incremented from the
// connection readers. Shed requests (class admission dropping
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

// record classifies one failed request by its reply's status token
// (empty for a transport error); the first few are logged.
func (f *failures) record(err error, status string) {
	switch status {
	case "DEADLINE":
		f.deadline.Add(1)
	case "OVERLOADED":
		f.overloaded.Add(1)
	case "STOPPED":
		f.stopped.Add(1)
	case "SHED":
		f.shed.Add(1)
		return // shedding is expected under overload; don't spam the log
	default:
		f.other.Add(1)
	}
	if f.logged.Add(1) <= 5 {
		log.Printf("request failed: %v %s", err, status)
	}
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

// arrivals is the open-loop schedule: Poisson arrival offsets from the
// start of a run of length d at the given mean rate, a function of seed
// and rate alone.
func arrivals(seed int64, rate float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	meanGap := float64(time.Second) / rate
	out := make([]time.Duration, 0, int(rate*d.Seconds()))
	for t := 0.0; ; {
		t += rng.ExpFloat64() * meanGap
		if t >= float64(d) {
			return out
		}
		out = append(out, time.Duration(t))
	}
}

// warmup is the fraction of completed requests the steady-state report
// discards.
const warmup = 0.1

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7070", "server address")
		rate     = flag.Float64("rate", 2000, "offered load, requests/second")
		duration = flag.Duration("duration", 10*time.Second, "run length")
		conns    = flag.Int("conns", 16, "connections (max in-flight is conns, or conns*pipeline with -proto binary)")
		protoOpt = flag.String("proto", "text", "wire protocol: text (lockstep lines) or binary (pipelined frames)")
		pipeline = flag.Int("pipeline", 16, "per-connection pipeline depth (binary protocol only)")
		mix      = flag.String("mix", "zippy", "workload mix: 5050, zippy, get, spin")
		classes  = flag.String("class", "", "SLO class per request: a class name (critical, standard, sheddable) or a weighted mix like critical:1,standard:6,sheddable:3; empty sends classless (standard) requests")
		keys     = flag.Int("keys", 15000, "key space (must match the server)")
		seed     = flag.Int64("seed", 1, "random seed")
		brkdown  = flag.Bool("breakdown", false, "request per-request latency breakdowns (server must run with -obs) and print a per-component table")
	)
	flag.Parse()

	gen, err := mixFor(*mix, *keys)
	if err != nil {
		log.Fatal(err)
	}
	pickClass, err := classPickerFor(*classes)
	if err != nil {
		log.Fatal(err)
	}
	if *rate <= 0 || *conns < 1 {
		log.Fatal("-rate and -conns must be positive")
	}
	window := 1
	switch *protoOpt {
	case "text":
	case "binary":
		if *brkdown {
			log.Fatal("-breakdown needs -proto text (|OBS trailers are text-only)")
		}
		if *pipeline < 1 {
			log.Fatal("-pipeline must be at least 1")
		}
		window = *pipeline
	default:
		log.Fatalf("-proto: unknown protocol %q (have text, binary)", *protoOpt)
	}

	fl := &fleet{lg: NewLog(int(*rate * duration.Seconds()))}
	defer fl.close()
	if err := fl.dial(*addr, *conns, window, *protoOpt == "binary", *brkdown); err != nil {
		log.Fatal(err)
	}

	// Open-loop arrivals on an absolute schedule, regardless of
	// completions: a late arrival launches at once, so sleep overshoot
	// does not accumulate into a lower offered rate.
	ops := rand.New(rand.NewSource(*seed + 1)) // a stream apart from the schedule's
	launched := 0
	start := time.Now()
	for _, at := range arrivals(*seed, *rate, *duration) {
		if wait := time.Until(start.Add(at)); wait > 0 {
			time.Sleep(wait)
		}
		if time.Since(start) >= *duration {
			break // launches blocked on a full fleet ran out the clock
		}
		o := gen(ops)
		if pickClass != nil {
			// Stamp the SLO class on both wire forms and prefix the
			// record label so every per-class table splits by SLO class
			// too.
			name, code := pickClass(ops)
			o.slo = code
			o.line = "@" + name + " " + o.line
			o.class = name + "/" + o.class
		}
		if err := fl.launch(o); err != nil {
			log.Printf("stopped launching: %v", err)
			break
		}
		launched++
	}
	fl.drain()

	all := fl.lg.Snapshot()
	steady := all[int(warmup*float64(len(all))):]
	sum := (&Log{records: steady}).Summarize()
	nfail := fl.fails.total()
	// Achieved throughput counts only completed requests: failures got
	// no service, and counting them overstated capacity.
	secs := duration.Seconds()
	fmt.Printf("offered %.0f rps, launched %d (%.0f rps), completed %d (%.0f rps achieved), failed %d\n",
		*rate, launched, float64(launched)/secs, len(all), float64(len(all))/secs, nfail)
	if nfail > 0 {
		f := &fl.fails
		fmt.Printf("failures: deadline=%d overloaded=%d stopped=%d shed=%d other=%d\n",
			f.deadline.Load(), f.overloaded.Load(), f.stopped.Load(), f.shed.Load(), f.other.Load())
	}
	fmt.Printf("steady-state: %s\n", sum)
	if !math.IsNaN(sum.P999) {
		fmt.Printf("p99.9 slowdown %.1fx %s the 50x SLO\n", sum.P999, meets(sum.P999))
	}
	printHistogram(os.Stdout, fl.hist.Snapshot())
	if *brkdown {
		printBreakdown(steady)
	}
}

func meets(p999 float64) string {
	if p999 <= 50 {
		return "meets"
	}
	return "MISSES"
}

// withBreakdown returns r with the server's latency decomposition from
// an |OBS trailer body, or r unchanged if the body does not parse:
//
//	h=0.8 q=12.3 s=4.5 p=0.0 i=0.012 e=0.004 n=1 d=0
func withBreakdown(r Record, trailer string) Record {
	b := r
	var d int
	if _, err := fmt.Sscanf(trailer, "h=%f q=%f s=%f p=%f i=%f e=%f n=%d d=%d",
		&b.HandoffUS, &b.QueueUS, &b.RunUS, &b.PreemptedUS, &b.IngressUS, &b.EgressUS, &b.Preemptions, &d); err != nil {
		return r
	}
	b.HasBreakdown, b.OnDispatcher = true, d == 1
	return b
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
