package main

import (
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"concord/internal/kv"
	"concord/internal/live"
	"concord/internal/netsrv"
	"concord/internal/obs"
	"concord/internal/proto"
	"concord/internal/shadow"
)

// testEnv is the operator surface exactly as main wires it with -obs,
// -shadow and -classes.
type testEnv struct{ *kvObs }

func (e *testEnv) stats() string { return "STATS " + e.metrics.StatsLine() }

func (e *testEnv) exposition() string {
	var sb strings.Builder
	e.metrics.WritePrometheus(&sb)
	return sb.String()
}

// bareStats is the STATS line of a server started with no observability
// or control flag: only the runtime itself is configured.
func bareStats(srv *live.Server) string {
	return "STATS " + (&kvObs{srv: srv}).register().metrics.StatsLine()
}

// newTestObs boots an in-process server with the full observability
// surface. The replayer is built but not run: tests drive it (or ignore
// it) deterministically.
func newTestObs(t *testing.T) *testEnv {
	return newTestObsSharded(t, 1)
}

func newTestObsSharded(t *testing.T, shards int) *testEnv {
	t.Helper()
	const workers = 2
	ob := &kvObs{
		tracer:   obs.NewTracerSharded(workers, shards, 1024),
		tail:     obs.NewTailTracker(nil, obs.NewSLOTracker(obs.SLOConfig{Target: 200 * time.Microsecond})),
		sketches: obs.NewClassSketches(live.NumClasses),
	}
	ob.tail.Classes = live.NewClassTrackers()
	ring := live.NewCaptureRing(1024, 1)
	ob.srv = live.New(&netsrv.KVHandler{Store: kv.New(), ScanBatch: 64}, live.Options{
		Workers:    workers,
		Shards:     shards,
		PinThreads: false,
		Tracer:     ob.tracer,
		Tail:       ob.tail,
		Sketches:   ob.sketches,
		Capture:    ring,
	})
	ob.srv.Start()
	t.Cleanup(ob.srv.Stop)
	ob.ns = netsrv.New(ob.srv, netsrv.Options{})
	ob.replayer = shadow.NewReplayer(ring, shadow.Config{Workers: workers, QuantumUS: 100, MinRecs: 4}, time.Hour)
	return &testEnv{ob.register()}
}

func put(t *testing.T, srv *live.Server, key, val string) {
	t.Helper()
	resp := srv.Do(&netsrv.Request{Op: proto.OpPut, Key: []byte(key), Val: []byte(val)})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
}

// statsKeys returns a STATS line's keys in order.
func statsKeys(line string) []string {
	var keys []string
	for _, f := range strings.Fields(line)[1:] {
		k, _, _ := strings.Cut(f, "=")
		keys = append(keys, k)
	}
	return keys
}

// metricSeries reduces an exposition to its TYPE lines plus the sorted
// set of series names with their label sets. Values, histogram le
// bounds (a function of the traffic), the build-info label values and
// the Go-runtime families (a function of the toolchain) are dropped.
func metricSeries(exposition string) []string {
	set := map[string]bool{}
	for _, ln := range strings.Split(exposition, "\n") {
		if ln == "" || strings.HasPrefix(ln, "# HELP ") || strings.Contains(ln, "concord_go_") {
			continue
		}
		if strings.HasPrefix(ln, "# TYPE ") {
			set[ln] = true
			continue
		}
		name, labels, _ := strings.Cut(ln[:strings.LastIndexByte(ln, ' ')], "{")
		var kept []string
		for _, l := range strings.Split(strings.TrimSuffix(labels, "}"), ",") {
			k, _, _ := strings.Cut(l, "=")
			switch {
			case l == "" || k == "le":
			case name == "concord_build_info":
				kept = append(kept, k)
			default:
				kept = append(kept, l)
			}
		}
		if len(kept) > 0 {
			name += "{" + strings.Join(kept, ",") + "}"
		}
		set[name] = true
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// TestRegistryGoldens pins the operator surface to the one captured
// from the last commit that rendered STATS and /metrics separately
// (statsLine + newKVObs, stitched by a consistency test): every STATS
// key in the same order, every /metrics family with its type and label
// sets, at one and at two shards with -obs -shadow -classes.
// The goldens were produced by these same two reductions.
func TestRegistryGoldens(t *testing.T) {
	for _, shards := range []int{1, 2} {
		e := newTestObsSharded(t, shards)
		put(t, e.srv, "k", "v")
		for name, got := range map[string][]string{
			"stats_keys":     statsKeys(e.stats()),
			"metrics_series": metricSeries(e.exposition()),
		} {
			file := fmt.Sprintf("testdata/%s_shards%d.golden", name, shards)
			want, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			if got := strings.Join(got, "\n") + "\n"; got != string(want) {
				t.Errorf("%s differs from the golden:\n got: %s\nwant: %s", file,
					strings.ReplaceAll(got, "\n", " "), strings.ReplaceAll(string(want), "\n", " "))
			}
		}
	}
}

// TestFamiliesSpelledOnce: a STATS field cannot exist without the
// /metrics series it is a view of — both come from one registration.
// What can still be checked is that every family name is spelled exactly
// once in the registry source, so each has a single definition.
func TestFamiliesSpelledOnce(t *testing.T) {
	src, err := os.ReadFile("metrics.go")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, name := range regexp.MustCompile(`"concord_[a-z0-9_]+"`).FindAllString(string(src), -1) {
		seen[name]++
	}
	if len(seen) < 40 {
		t.Fatalf("found only %d family names in metrics.go", len(seen))
	}
	for name, n := range seen {
		if n != 1 {
			t.Errorf("family %s spelled %d times in metrics.go, want once", name, n)
		}
	}
}

// TestStatsNetFields: the connection-layer fields render with a live
// netsrv server and are absent from the bare (ns == nil) line.
func TestStatsNetFields(t *testing.T) {
	e := newTestObs(t)
	line := e.stats()
	for _, want := range []string{
		"conns=0", "pipeline=0", "frames_in=0", "frames_out=0",
		"flushes=0", "text_lines=0", "toolarge=0", "badframes=0", "write_closed=0",
		"flush_batch_mean=0.00", "flush_batch_p50=0.00", "flush_batch_p99=0.00",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("STATS line missing %q: %s", want, line)
		}
	}
	bare := bareStats(e.srv)
	if strings.Contains(bare, "frames_in=") || strings.Contains(bare, "conns=") {
		t.Errorf("bare STATS line has net fields: %s", bare)
	}
}

// TestStatsLineWindowedFields: rolling quantiles and burn rates show up
// in STATS once traffic has flowed, keyed per configured window.
func TestStatsLineWindowedFields(t *testing.T) {
	e := newTestObs(t)
	for i := 0; i < 20; i++ {
		if resp := e.srv.Do(&netsrv.Request{Op: proto.OpGet, Key: []byte("nope")}); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	line := e.stats()
	for _, want := range []string{"p50_1s=", "p99_10s=", "p999_60s=", "burn_short=", "burn_long=", "slo_alerting="} {
		if !strings.Contains(line, want) {
			t.Errorf("STATS line missing %q: %s", want, line)
		}
	}
	// Without the obs surface the windowed fields must be absent but
	// the counter fields still render.
	bare := bareStats(e.srv)
	if strings.Contains(bare, "p50_") || strings.Contains(bare, "burn_") {
		t.Errorf("bare STATS line has windowed fields: %s", bare)
	}
	if !strings.Contains(bare, "submitted=") || !strings.Contains(bare, "occ=") {
		t.Errorf("bare STATS line missing counters: %s", bare)
	}
}

// TestStatsShardedFields: with two shards the STATS line carries one
// comma-separated slot per shard and the steals counter renders (its
// value depends on whether the idle sibling shard got to the one PUT
// first), with the per-shard series on /metrics.
func TestStatsShardedFields(t *testing.T) {
	e := newTestObsSharded(t, 2)
	put(t, e.srv, "k", "v")
	line := e.stats()
	for _, want := range []string{" steals=", "shardq=0,0", "shardocc=0,0"} {
		if !strings.Contains(line, want) {
			t.Errorf("STATS line missing %q: %s", want, line)
		}
	}
	exposition := e.exposition()
	for _, family := range []string{
		"concord_steals_total",
		`concord_shard_queue_depth{shard="0"}`,
		`concord_shard_queue_depth{shard="1"}`,
		`concord_shard_occupancy{shard="1"}`,
	} {
		if !strings.Contains(exposition, family) {
			t.Errorf("/metrics missing %q", family)
		}
	}
}

// TestObsTrailerFormat: the trailer is the wire contract concord-load's
// parseObsTrailer consumes — every component key in order, wire phases
// at millisecond precision so sub-µs values stay visible.
func TestObsTrailerFormat(t *testing.T) {
	if got := obsTrailer(live.Response{}); got != "" {
		t.Fatalf("trailer without breakdown = %q, want empty", got)
	}
	resp := live.Response{
		Latency: 100 * time.Microsecond,
		Breakdown: &live.Breakdown{
			Ingress: 1500 * time.Nanosecond,
			Handoff: 10 * time.Microsecond,
			Queue:   20 * time.Microsecond,
			Service: 60 * time.Microsecond,
		},
		Preemptions:  2,
		OnDispatcher: true,
		Done:         time.Now(),
	}
	got := obsTrailer(resp)
	for _, want := range []string{" |OBS h=10.0 ", "q=20.0 ", "s=60.0 ", "p=0.0 ", "i=1.500 ", "e=", "n=2 ", "d=1"} {
		if !strings.Contains(got, want) {
			t.Errorf("trailer missing %q: %q", want, got)
		}
	}
	// Egress accrues from Done to render time: non-negative, and small
	// for a fresh completion.
	var h, q, s, p, i, e float64
	var n, d int
	if _, err := fmt.Sscanf(strings.TrimPrefix(got, " |OBS "),
		"h=%f q=%f s=%f p=%f i=%f e=%f n=%d d=%d", &h, &q, &s, &p, &i, &e, &n, &d); err != nil {
		t.Fatalf("trailer does not scan: %q, %v", got, err)
	}
	if e < 0 {
		t.Errorf("egress %v negative", e)
	}
}

// TestRuntimeHealthFamilies: the registry carries the Go runtime health
// surface and build-info gauge, and the per-op wire-phase histogram
// components exist alongside the scheduler ones.
func TestRuntimeHealthFamilies(t *testing.T) {
	e := newTestObs(t)
	exposition := e.exposition()
	for _, family := range []string{
		"concord_go_goroutines", "concord_go_gomaxprocs",
		"concord_go_heap_live_bytes", "concord_go_gc_cycles_total",
		"concord_build_info",
	} {
		if !strings.Contains(exposition, "# TYPE "+family+" ") {
			t.Errorf("/metrics missing %q", family)
		}
	}
	if !strings.Contains(exposition, `concord_build_info{`) || !strings.Contains(exposition, `goversion="go`) {
		t.Errorf("build info gauge missing version labels:\n%s", exposition)
	}
	for _, series := range []string{
		`concord_request_us{op="get",component="ingress"}`,
		`concord_request_us{op="get",component="egress"}`,
	} {
		// Histogram series render with suffixed names; check the base
		// label set appears somewhere in the exposition.
		base := strings.Replace(series, "concord_request_us{", `concord_request_us_count{`, 1)
		if !strings.Contains(exposition, base) {
			t.Errorf("/metrics missing per-op wire-phase series %q", base)
		}
	}
}

// TestSLOClasses: the class is the tenant's wire declaration, not a
// property of the op — an undeclared request is standard regardless of
// operation, a declared class rides through untouched, and the tier
// order the cascade queue keys on is critical < standard
// < sheddable.
func TestSLOClasses(t *testing.T) {
	for _, tc := range []struct {
		req  *netsrv.Request
		want live.SLOClass
	}{
		{&netsrv.Request{Op: proto.OpGet, Key: []byte("k")}, live.ClassStandard},
		{&netsrv.Request{Op: proto.OpScan}, live.ClassStandard},
		{&netsrv.Request{Op: proto.OpSpin, Spin: 300 * time.Microsecond}, live.ClassStandard},
		{&netsrv.Request{Op: proto.OpGet, Key: []byte("k"), Class: live.ClassCritical}, live.ClassCritical},
		{&netsrv.Request{Op: proto.OpScan, Class: live.ClassSheddable}, live.ClassSheddable},
	} {
		if got := tc.req.SLOClass(); got != tc.want {
			t.Errorf("op 0x%02x class %v: SLOClass %v, want %v", tc.req.Op, tc.req.Class, got, tc.want)
		}
	}
	if !(live.ClassCritical.Tier() < live.ClassStandard.Tier() && live.ClassStandard.Tier() < live.ClassSheddable.Tier()) {
		t.Errorf("tier order: critical %d, standard %d, sheddable %d",
			live.ClassCritical.Tier(), live.ClassStandard.Tier(), live.ClassSheddable.Tier())
	}
}

// TestServiceHints: every op yields a positive hint, SPIN's equals its
// requested duration, and relative order matches relative cost. (Parse
// rejection of bad SPIN durations is covered in internal/netsrv.)
func TestServiceHints(t *testing.T) {
	spin := &netsrv.Request{Op: proto.OpSpin, Spin: 250 * time.Microsecond}
	if spin.ServiceHint() != 250*time.Microsecond {
		t.Fatalf("SPIN hint = %v, want 250µs", spin.ServiceHint())
	}
	get := &netsrv.Request{Op: proto.OpGet, Key: []byte("k")}
	scan := &netsrv.Request{Op: proto.OpScan}
	if get.ServiceHint() <= 0 || scan.ServiceHint() <= 0 {
		t.Fatal("non-positive service hint")
	}
	if !(get.ServiceHint() < scan.ServiceHint()) {
		t.Fatal("GET hinted costlier than SCAN")
	}
}

func TestFmtWindow(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want string
	}{
		{time.Second, "1s"},
		{10 * time.Second, "10s"},
		{time.Minute, "60s"},
		{500 * time.Millisecond, "500ms"},
	} {
		if got := fmtWindow(tc.d); got != tc.want {
			t.Errorf("fmtWindow(%v) = %q, want %q", tc.d, got, tc.want)
		}
	}
}

// TestStatsSketchAndRegretFields: real traffic feeds the class sketches
// and the capture ring; after a replay the STATS line carries the
// svc_*/regret_* block and /metrics exposes the matching families.
func TestStatsSketchAndRegretFields(t *testing.T) {
	e := newTestObs(t)
	put(t, e.srv, "k", "v")
	for i := 0; i < 30; i++ {
		if resp := e.srv.Do(&netsrv.Request{Op: proto.OpGet, Key: []byte("k")}); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	if _, ok := e.replayer.ReplayOnce(); !ok {
		t.Fatal("replay skipped a 31-request window")
	}

	line := e.stats()
	for _, want := range []string{
		"svc_p50_us=", "svc_p99_us=",
		"regret_windows=1", "regret_skipped=0", "shadow_captured=31",
		"regret_best=", "regret=", "regret_ratio_fcfs=",
		"regret_ratio_srpt_hint=", "regret_ratio_srpt_oracle=",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("STATS line missing %q: %s", want, line)
		}
	}
	// Undeclared point ops are ClassStandard: its p50 slot (first of
	// three) must be positive while untouched classes stay 0.
	for _, f := range strings.Fields(line) {
		if !strings.HasPrefix(f, "svc_p50_us=") {
			continue
		}
		vals := strings.Split(strings.TrimPrefix(f, "svc_p50_us="), ",")
		if len(vals) != 3 {
			t.Fatalf("svc_p50_us has %d class slots, want 3: %q", len(vals), f)
		}
		if vals[0] == "0.0" {
			t.Errorf("standard-class p50 still zero after 30 GETs: %q", f)
		}
	}
	exposition := e.exposition()
	for _, family := range []string{
		`concord_svc_time_us{class="standard",quantile="p99"}`,
		`concord_hint_error_count{class="standard"}`,
		`concord_regret_p99_ratio{policy="srpt_oracle"}`,
		`concord_regret_best_policy{policy="fcfs"}`,
		"concord_regret_ratio", "concord_regret_windows_total",
		`concord_shadow_captures_total{result="kept"}`,
	} {
		if !strings.Contains(exposition, family) {
			t.Errorf("/metrics missing %q", family)
		}
	}
	// Without -shadow/-obs the bare line must carry none of the block.
	bare := bareStats(e.srv)
	if strings.Contains(bare, "svc_p50_us=") || strings.Contains(bare, "regret") {
		t.Errorf("bare STATS line has sketch/regret fields: %s", bare)
	}
}

// TestShadowControlVerb: SHADOW replays the scored windows newest
// first, honors a count, terminates with END, and degrades to ERR
// without -shadow.
func TestShadowControlVerb(t *testing.T) {
	e := newTestObs(t)
	put(t, e.srv, "k", "v")
	for i := 0; i < 20; i++ {
		if resp := e.srv.Do(&netsrv.Request{Op: proto.OpGet, Key: []byte("k")}); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	if _, ok := e.replayer.ReplayOnce(); !ok {
		t.Fatal("replay skipped")
	}
	var out strings.Builder
	obsOn := false
	if !e.control(&out, "SHADOW 1", &obsOn) {
		t.Fatal("SHADOW not handled")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 || lines[1] != "END 1" {
		t.Fatalf("SHADOW 1 = %q", out.String())
	}
	for _, want := range []string{"achieved_p99", "fcfs", "srpt_hint", "srpt_oracle", "best"} {
		if !strings.Contains(lines[0], want) {
			t.Errorf("SHADOW line missing %q: %q", want, lines[0])
		}
	}
	out.Reset()
	if !e.control(&out, "SHADOW nope", &obsOn) {
		t.Fatal("bad count not handled")
	}
	if !strings.HasPrefix(out.String(), "ERR ") {
		t.Fatalf("bad count reply = %q", out.String())
	}
	out.Reset()
	if !(&kvObs{srv: e.srv}).control(&out, "SHADOW", &obsOn) {
		t.Fatal("SHADOW without replayer not handled")
	}
	if !strings.HasPrefix(out.String(), "ERR ") {
		t.Fatalf("no-replayer reply = %q", out.String())
	}
}
