package obs

import (
	"net/http/httptest"
	"strings"
	"testing"
)

func TestWritePrometheus(t *testing.T) {
	m := &Metrics{}
	m.Register(Metric{Name: "concord_queue_depth", Help: "live queue occupancy", Kind: Gauge,
		Labels: Labels("queue", "central"), Value: func() float64 { return 3 }})
	m.Register(Metric{Name: "concord_submitted_total", Help: "requests accepted", Kind: Counter,
		Value: func() float64 { return 42 }})
	m.Register(Metric{Name: "concord_queue_depth", Help: "live queue occupancy", Kind: Gauge,
		Labels: Labels("queue", "submit"), Value: func() float64 { return 1 }})
	var sk QuantileSketch
	sk.Observe(500)  // octave 8: [256, 512) ns, le = 0.512 µs
	sk.Observe(3000) // octave 11: [2048, 4096) ns, le = 4.096 µs
	sk.Observe(3000)
	m.Register(Metric{Name: "concord_request_us", Help: "per-op latency", Kind: Histogram,
		Labels: Labels("op", "get", "component", "total"), Sketch: sk.Snapshot, Unit: 1e3})

	var b strings.Builder
	m.WritePrometheus(&b)
	out := b.String()

	for _, want := range []string{
		"# HELP concord_submitted_total requests accepted",
		"# TYPE concord_submitted_total counter",
		"concord_submitted_total 42",
		"# TYPE concord_queue_depth gauge",
		`concord_queue_depth{queue="central"} 3`,
		`concord_queue_depth{queue="submit"} 1`,
		"# TYPE concord_request_us histogram",
		`concord_request_us_bucket{op="get",component="total",le="0.512"} 1`,
		`concord_request_us_bucket{op="get",component="total",le="4.096"} 3`,
		`concord_request_us_bucket{op="get",component="total",le="+Inf"} 3`,
		`concord_request_us_sum{op="get",component="total"} 6.5`,
		`concord_request_us_count{op="get",component="total"} 3`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// A family registered in two separate places still renders as one
	// contiguous block under one header.
	if strings.Count(out, "# TYPE concord_queue_depth gauge") != 1 ||
		!strings.Contains(out, "central\"} 3\nconcord_queue_depth{queue=\"submit") {
		t.Fatalf("family not grouped under one header:\n%s", out)
	}
	// Cumulative monotonicity: the empty octaves between the two
	// populated ones carry the running count, never reset to 0.
	if !strings.Contains(out, `le="1.024"} 1`) || strings.Contains(out, `"} 0`) {
		t.Fatalf("empty mid-octaves should carry the cumulative count:\n%s", out)
	}
	// Octaves past the last populated one are elided.
	if strings.Contains(out, `le="8.192"`) {
		t.Fatalf("trailing empty octave rendered:\n%s", out)
	}
}

// TestStatsLine: the STATS fields come from the same table as the
// exposition — positioned by first registration, combined per Join,
// printed with the first member's Format.
func TestStatsLine(t *testing.T) {
	m := &Metrics{}
	gauge := func(name, labels, stat, format string, join StatJoin, v float64) {
		m.Register(Metric{Name: name, Kind: Gauge, Labels: labels, Stat: stat, Format: format, Join: join,
			Value: func() float64 { return v }})
	}
	gauge("a_total", "", "a", "", JoinComma, 7)
	gauge("occ", Labels("worker", "0"), "occ", "", JoinComma, 1)
	gauge("unlisted", "", "", "", JoinComma, 99)
	gauge("lat_us", Labels("class", "x", "quantile", "p99"), "lat", "%.1f", JoinComma, 12.34)
	gauge("occ", Labels("worker", "1"), "occ", "", JoinComma, 2)
	gauge("lat_us", Labels("class", "y", "quantile", "p99"), "lat", "%.1f", JoinComma, 5)
	gauge("decisions", Labels("action", "hold"), "decisions", "", JoinSum, 30)
	gauge("decisions", Labels("action", "relax"), "decisions", "", JoinSum, 1)
	gauge("best", Labels("policy", "fcfs"), "best", "", JoinLabel, 0)
	gauge("best", Labels("policy", "srpt"), "best", "", JoinLabel, 1)
	gauge("idle_best", Labels("policy", "fcfs"), "idle_best", "", JoinLabel, 0)

	const want = "a=7 occ=1,2 lat=12.3,5.0 decisions=31 best=srpt idle_best=none"
	if got := m.StatsLine(); got != want {
		t.Fatalf("StatsLine = %q\nwant        %q", got, want)
	}
}

// renderSource stands in for a server: every read counts.
type renderSource struct{ reads, submitted, completed int }

func (s *renderSource) stats() (submitted, completed int) {
	s.reads++
	return s.submitted, s.completed
}

// TestOneSnapshotPerRender: with the source copied in an OnRender hook,
// a render reads it exactly once however many series it feeds, so all
// the numbers in one exposition (or one STATS line) are from the same
// instant.
func TestOneSnapshotPerRender(t *testing.T) {
	src := &renderSource{submitted: 10, completed: 9}
	var snap struct{ submitted, completed int }
	m := &Metrics{}
	m.OnRender(func() { snap.submitted, snap.completed = src.stats() })
	for i := 0; i < 9; i++ {
		m.Register(Metric{Name: "submitted_total", Kind: Counter, Labels: Labels("copy", string(rune('a'+i))),
			Stat: "submitted", Value: func() float64 { return float64(snap.submitted) }})
		m.Register(Metric{Name: "completed_total", Kind: Counter, Labels: Labels("copy", string(rune('a'+i))),
			Stat: "completed", Value: func() float64 { return float64(snap.completed) }})
	}
	var b strings.Builder
	m.WritePrometheus(&b)
	if src.reads != 1 {
		t.Fatalf("one /metrics render read the source %d times, want 1", src.reads)
	}
	src.submitted, src.completed = 20, 19
	line := m.StatsLine()
	if src.reads != 2 {
		t.Fatalf("one STATS render read the source %d times (cumulative), want 2", src.reads)
	}
	if !strings.HasPrefix(line, "submitted=20,20,") || strings.Contains(line, "=10") {
		t.Fatalf("STATS did not re-snapshot: %q", line)
	}
}

func TestMetricsServeHTTP(t *testing.T) {
	m := &Metrics{}
	m.Register(Metric{Name: "x_total", Help: "x", Kind: Counter, Value: func() float64 { return 1 }})
	rec := httptest.NewRecorder()
	m.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "x_total 1") {
		t.Fatalf("body = %q", rec.Body.String())
	}
}
