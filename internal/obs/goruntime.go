// Runtime health surface: concord_go_* families sampled from
// runtime/metrics at scrape time, plus a concord_build_info gauge, so a
// tail excursion can be attributed to the Go runtime (GC pause,
// scheduler latency, goroutine population, heap growth) rather than to
// the scheduling layers. Sampling happens only when /metrics is
// scraped; nothing here touches the request hot path.
package obs

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	rtm "runtime/metrics"
)

// goQuantiles are the per-histogram quantile gauges exported for the
// runtime's Float64Histogram metrics (GC pauses, sched latencies).
var goQuantiles = []float64{0.5, 0.99}

// RegisterGoRuntime registers the concord_go_* families on m. Metrics
// the running toolchain does not export are skipped, so the set adapts
// to the Go version without build tags.
func RegisterGoRuntime(m *Metrics) {
	exists := map[string]bool{}
	for _, d := range rtm.All() {
		exists[d.Name] = true
	}
	firstExisting := func(names ...string) string {
		for _, n := range names {
			if exists[n] {
				return n
			}
		}
		return ""
	}

	scalar := func(kind MetricKind, pname, help, rname string) {
		if exists[rname] {
			m.Register(Metric{Name: pname, Help: help, Kind: kind, Value: sampleScalar(rname)})
		}
	}
	gauge := func(pname, help, rname string) { scalar(Gauge, pname, help, rname) }
	counter := func(pname, help, rname string) { scalar(Counter, pname, help, rname) }
	histGauges := func(pname, help string, rnames ...string) {
		rname := firstExisting(rnames...)
		if rname == "" {
			return
		}
		for _, q := range goQuantiles {
			m.Register(Metric{Name: pname, Help: help, Kind: Gauge,
				Labels: Labels("quantile", fmt.Sprintf("%g", q)), Value: sampleHistQuantile(rname, q)})
		}
	}

	gauge("concord_go_goroutines", "Live goroutine count.", "/sched/goroutines:goroutines")
	gauge("concord_go_gomaxprocs", "GOMAXPROCS at last scrape.", "/sched/gomaxprocs:threads")
	gauge("concord_go_heap_live_bytes", "Bytes occupied by live heap objects.", "/memory/classes/heap/objects:bytes")
	gauge("concord_go_heap_goal_bytes", "Heap size target of the next GC cycle.", "/gc/heap/goal:bytes")
	counter("concord_go_gc_cycles_total", "Completed GC cycles.", "/gc/cycles/total:gc-cycles")
	histGauges("concord_go_gc_pause_us", "Distribution of GC stop-the-world pause latencies (microseconds).",
		"/sched/pauses/total/gc:seconds", "/gc/pauses:seconds")
	histGauges("concord_go_sched_latency_us", "Distribution of goroutine scheduling latencies (microseconds).",
		"/sched/latencies:seconds")
}

// RegisterBuildInfo registers the concord_build_info gauge: constant 1,
// with the build's version (module version or VCS revision) and the Go
// toolchain as labels.
func RegisterBuildInfo(m *Metrics) {
	version := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		if v := bi.Main.Version; v != "" && v != "(devel)" {
			version = v
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				version = s.Value[:12]
			}
		}
	}
	m.Register(Metric{Name: "concord_build_info", Help: "Build metadata; constant 1.", Kind: Gauge,
		Labels: Labels("version", version, "goversion", runtime.Version()), Value: func() float64 { return 1 }})
}

// sampleScalar reads one runtime/metrics sample per scrape. The small
// per-call slice keeps concurrent scrapes race-free.
func sampleScalar(rname string) func() float64 {
	return func() float64 {
		s := []rtm.Sample{{Name: rname}}
		rtm.Read(s)
		switch s[0].Value.Kind() {
		case rtm.KindUint64:
			return float64(s[0].Value.Uint64())
		case rtm.KindFloat64:
			return s[0].Value.Float64()
		}
		return 0
	}
}

// sampleHistQuantile reads a Float64Histogram metric (unit: seconds)
// and reports the q-quantile in microseconds.
func sampleHistQuantile(rname string, q float64) func() float64 {
	return func() float64 {
		s := []rtm.Sample{{Name: rname}}
		rtm.Read(s)
		if s[0].Value.Kind() != rtm.KindFloat64Histogram {
			return 0
		}
		return histQuantileSeconds(s[0].Value.Float64Histogram(), q) * 1e6
	}
}

// histQuantileSeconds approximates a quantile of a runtime
// Float64Histogram as the upper bound of the bucket containing it
// (lower bound for the +Inf-capped last bucket). Zero when empty.
func histQuantileSeconds(h *rtm.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target >= total {
		target = total - 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum > target {
			// Bucket i spans Buckets[i]..Buckets[i+1].
			if up := h.Buckets[i+1]; !math.IsInf(up, 1) {
				return up
			}
			if lo := h.Buckets[i]; !math.IsInf(lo, -1) {
				return lo
			}
			return 0
		}
	}
	return 0
}
