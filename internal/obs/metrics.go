// A minimal metrics registry with two renderers over one table: the
// Prometheus text exposition served on /metrics and the key=value
// fields of the text protocol's STATS line. Every metric is registered
// once — family, labels, source, and optionally the STATS key it also
// prints under — so the two surfaces cannot drift apart. No external
// dependency: counters and gauges are callbacks sampled at render time,
// histograms are sketch snapshots rendered as cumulative le-buckets.
package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
)

// MetricKind is a metric's Prometheus type.
type MetricKind uint8

const (
	Counter MetricKind = iota
	Gauge
	Histogram
)

var metricKindNames = [...]string{Counter: "counter", Gauge: "gauge", Histogram: "histogram"}

// StatJoin says how the members sharing one STATS key combine into the
// field's value.
type StatJoin uint8

const (
	// JoinComma prints every member's value, comma-separated in
	// registration order (per-class and per-worker fields).
	JoinComma StatJoin = iota
	// JoinSum prints the sum of the members' values.
	JoinSum
	// JoinLabel prints the last label value of the first member whose
	// value is non-zero, "none" when all are zero (one-hot families).
	JoinLabel
)

// Metric is one registered series.
type Metric struct {
	// Name is the family; series sharing a Name render under one
	// HELP/TYPE header (taken from the first registered) and differ in
	// Labels.
	Name, Help string
	Kind       MetricKind
	// Labels is the series' label set without braces, as Labels builds
	// it; empty for an unlabelled series.
	Labels string
	// Value is sampled once per render. Counters and gauges require it;
	// on a Histogram it only supplies the STATS field.
	Value func() float64
	// Sketch is a Histogram's source, rendered collapsed to octaves.
	Sketch func() SketchSnapshot
	// Unit is how many sketch units make one exposed unit — 1e3 exposes
	// a nanosecond sketch in microseconds. 0 means 1.
	Unit float64
	// Stat, when non-empty, also prints Value as this key on the STATS
	// line, positioned by the key's first registration; series sharing a
	// key combine per the first one's Join and print with Format ("" =
	// "%.0f").
	Stat   string
	Format string
	Join   StatJoin
}

// Labels renders key/value pairs as a Metric.Labels string:
// Labels("op", "get", "component", "total") = `op="get",component="total"`.
func Labels(kv ...string) string {
	var b strings.Builder
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", kv[i], kv[i+1])
	}
	return b.String()
}

// metricGroup is a run of metrics sharing a family name or a STATS key, as
// indices into Metrics.all in registration order.
type metricGroup struct {
	key     string
	members []int
}

// Metrics is the registry. Registration is not hot-path. A render
// holds the registry lock throughout, so renders are serialised: the
// OnRender hooks run once, then every Value and Sketch is sampled.
type Metrics struct {
	mu       sync.Mutex
	all      []Metric
	families []metricGroup
	stats    []metricGroup
	hooks    []func()
}

// Register adds one series.
func (m *Metrics) Register(mt Metric) {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := len(m.all)
	m.all = append(m.all, mt)
	m.families = addToGroup(m.families, mt.Name, i)
	if mt.Stat != "" {
		m.stats = addToGroup(m.stats, mt.Stat, i)
	}
}

func addToGroup(gs []metricGroup, key string, i int) []metricGroup {
	for g := range gs {
		if gs[g].key == key {
			gs[g].members = append(gs[g].members, i)
			return gs
		}
	}
	return append(gs, metricGroup{key, []int{i}})
}

// OnRender registers a hook run once at the start of every render
// (/metrics or STATS), before anything is sampled. A hook that copies
// the server's counters into a struct the Value closures read gives
// every number in one exposition the same instant — and keeps sources
// with side effects (the SLO alert latch) to one call per render.
func (m *Metrics) OnRender(hook func()) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.hooks = append(m.hooks, hook)
}

// begin starts a render. Callers hold m.mu.
func (m *Metrics) begin() {
	for _, h := range m.hooks {
		h()
	}
}

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format (version 0.0.4), families in first-registration
// order.
func (m *Metrics) WritePrometheus(w io.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.begin()
	for _, fam := range m.families {
		first := m.all[fam.members[0]]
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", fam.key, first.Help, fam.key, metricKindNames[first.Kind])
		for _, i := range fam.members {
			if mt := m.all[i]; mt.Kind == Histogram {
				writeHistogram(w, mt)
			} else {
				fmt.Fprintf(w, "%s %g\n", series(mt.Name, "", mt.Labels, ""), mt.Value())
			}
		}
	}
}

// writeHistogram renders one sketch as cumulative le-buckets, one per
// octave: bucket k's bound is 2^(k+1) sketch units, scaled to the
// exposed unit.
func writeHistogram(w io.Writer, mt Metric) {
	unit := mt.Unit
	if unit == 0 {
		unit = 1
	}
	snap := mt.Sketch()
	var cum uint64
	for k, c := range snap.Octaves() {
		cum += c
		// Only emit boundaries from the first to the last non-empty
		// octave to keep the exposition small; +Inf carries the rest.
		if cum == 0 || (c == 0 && cum == snap.Count) {
			continue
		}
		le := fmt.Sprintf("%g", math.Ldexp(1, k+1)/unit)
		fmt.Fprintf(w, "%s %d\n", series(mt.Name, "_bucket", mt.Labels, le), cum)
	}
	fmt.Fprintf(w, "%s %d\n", series(mt.Name, "_bucket", mt.Labels, "+Inf"), snap.Count)
	fmt.Fprintf(w, "%s %g\n", series(mt.Name, "_sum", mt.Labels, ""), float64(snap.Sum)/unit)
	fmt.Fprintf(w, "%s %d\n", series(mt.Name, "_count", mt.Labels, ""), snap.Count)
}

// series renders a sample name: the family plus a histogram suffix,
// then the label set with le merged in when non-empty:
//
//	series("h", "_bucket", `op="get"`, "4") = `h_bucket{op="get",le="4"}`
func series(name, suffix, labels, le string) string {
	if le != "" {
		if labels != "" {
			labels += ","
		}
		labels += `le="` + le + `"`
	}
	if labels == "" {
		return name + suffix
	}
	return name + suffix + "{" + labels + "}"
}

// StatsLine renders every metric registered with a Stat key as
// space-separated key=value fields, keys in first-registration order.
func (m *Metrics) StatsLine() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.begin()
	var b strings.Builder
	for n, st := range m.stats {
		if n > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(st.key)
		b.WriteByte('=')
		first := m.all[st.members[0]]
		format := first.Format
		if format == "" {
			format = "%.0f"
		}
		switch first.Join {
		case JoinSum:
			sum := 0.0
			for _, i := range st.members {
				sum += m.all[i].Value()
			}
			fmt.Fprintf(&b, format, sum)
		case JoinLabel:
			val := "none"
			for _, i := range st.members {
				if mt := m.all[i]; mt.Value() != 0 {
					val = mt.Labels[strings.LastIndex(mt.Labels, `="`)+2 : len(mt.Labels)-1]
					break
				}
			}
			b.WriteString(val)
		default:
			for j, i := range st.members {
				if j > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, format, m.all[i].Value())
			}
		}
	}
	return b.String()
}

// ServeHTTP makes the registry an http.Handler for /metrics.
func (m *Metrics) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	// Render into memory first: a slow scraper must not hold the
	// registry lock (and with it every STATS render) across its reads.
	var buf bytes.Buffer
	m.WritePrometheus(&buf)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(buf.Bytes()) //nolint:errcheck // the client went away; nothing to report to
}
