package main

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"concord/internal/proto"
)

// Nothing here asserts on a clock: the tests cover the arithmetic the
// report rests on and the input generators, not the measurements.

func TestQuantileSorted(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50}
	for _, tc := range []struct{ q, want float64 }{
		{0, 10}, {0.5, 30}, {1, 50}, {0.25, 20}, {0.9, 46},
	} {
		if got := quantileSorted(s, tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("quantileSorted(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := quantileSorted([]float64{}, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of nothing = %v, want NaN", got)
	}
}

func TestSupportedTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 0}, {19, 0}, {20, 0.5}, {45, 0.75}, {100, 0.9}, {199, 0.9}, {200, 0.95},
		{1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {100000, 0.9999},
	} {
		if got := supportedTail(tc.n); got != tc.want {
			t.Errorf("supportedTail(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestMedianOverReps(t *testing.T) {
	reps := []float64{5, 1, 9, 3, 7}
	if got := median(reps); got != 5 {
		t.Errorf("median(odd) = %v, want 5", got)
	}
	if !slices.Equal(reps, []float64{5, 1, 9, 3, 7}) {
		t.Errorf("median reordered its input: %v", reps)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(even) = %v, want 2.5", got)
	}
	// One disturbed repetition does not move the figure.
	if got := median([]float64{100, 101, 99, 100, 5000}); got != 100 {
		t.Errorf("median with an outlier = %v, want 100", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{7, 1, 4, 10, 2, 9, 3, 8, 5, 6})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles = %v, %v, want 1.5, 12", q1, q3)
	}
	if got := spread([]float64{1, 2, 4, 8, 16}); got != (12-1.5)/4 {
		t.Errorf("spread = %v", got)
	}
}

func TestCalm(t *testing.T) {
	// kept gives phases 1, 2, … the scores and returns the numbers of the
	// calm ones.
	kept := func(scores ...float64) []int {
		var all []sample
		for i, score := range scores {
			all = append(all, sample{v: float64(i + 1), stolen: score})
		}
		var out []int
		for _, x := range calm(all) {
			out = append(out, int(x.v))
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		scores []float64
		want   []int
	}{
		{"a host quiet throughout: within 2x of the third calmest, all kept",
			[]float64{10, 14, 9, 12, 19, 11}, []int{1, 2, 3, 4, 5, 6}},
		{"quiet part of the time: scores above 2*12+4 go, wherever they are",
			[]float64{120, 10, 95, 12, 9, 60, 28}, []int{2, 4, 5, 7}},
		{"one lucky phase does not set the scale, the third calmest does",
			[]float64{0, 40, 44, 50, 200}, []int{1, 2, 3, 4}},
		{"no steal information: every phase kept",
			[]float64{0, 0, 0, 0}, []int{1, 2, 3, 4}},
		{"a late generator ranks behind any steal count",
			[]float64{lateScore, 30, 35, 28, lateScore}, []int{2, 3, 4}},
		{"late phases are kept when fewer than three kept time",
			[]float64{lateScore, 30, lateScore}, []int{1, 2, 3}},
		{"fewer phases than the anchor: all kept",
			[]float64{500, 1}, []int{1, 2}},
	} {
		if got := kept(tc.scores...); !slices.Equal(got, tc.want) {
			t.Errorf("%s: kept %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestCrossing(t *testing.T) {
	// walk plays a staircase from start against a server that meets the
	// SLO strictly below limit, with the outcome of the rungs in flip
	// inverted (a rung the host disturbed, or a lucky one).
	walk := func(start, limit float64, rungs int, flip ...int) ([]float64, []bool) {
		var rates []float64
		var passes []bool
		rate := start
		for i := 0; i < rungs; i++ {
			pass := rate < limit != slices.Contains(flip, i)
			rates, passes = append(rates, rate), append(passes, pass)
			if pass {
				rate *= openStep
			} else {
				rate /= openStep
			}
		}
		return rates, passes
	}
	within := func(got, want, tol float64) bool { return math.Abs(got/want-1) <= tol }

	got, ok := crossing(walk(8000, 9200, 10))
	if !ok || !within(got, 9200, openStep-1) {
		t.Errorf("climbing: crossing = %v, %v, want about 9200", got, ok)
	}
	got, ok = crossing(walk(8000, 6500, 10))
	if !ok || !within(got, 6500, openStep-1) {
		t.Errorf("descending: crossing = %v, %v, want about 6500", got, ok)
	}
	got, ok = crossing(walk(8000, 1e9, 5))
	if ok || got != 8000*math.Pow(openStep, 4) {
		t.Errorf("never fails: crossing = %v, %v, want the last rate as a bound", got, ok)
	}
	got, ok = crossing(walk(8000, 1, 5))
	if ok || math.Abs(got-8000/math.Pow(openStep, 4)) > 1e-6 {
		t.Errorf("never passes: crossing = %v, %v, want the last rate as a bound", got, ok)
	}
	// One disturbed rung moves the estimate by less than a step.
	clean, _ := crossing(walk(8000, 9200, 10))
	got, _ = crossing(walk(8000, 9200, 10, 6))
	if !within(got, clean, openStep-1) {
		t.Errorf("one disturbed rung: crossing = %v, undisturbed %v", got, clean)
	}
}

// A phase the host ran at half the reference speed files its CPU-bound
// times halved and its rates doubled, its wall-clock figures as measured,
// and keeps what it measured beside each.
func TestReferenceSpeed(t *testing.T) {
	v := &phaseValues{vals: map[string]sample{}, slow: 2}
	v.putTime("p50_us", 10, 5)
	v.putRate("throughput_rps", 1000, 5)
	v.put("tail_us", 300, 5)
	for name, want := range map[string]sample{
		"p50_us":         {v: 5, raw: 10, n: 5},
		"throughput_rps": {v: 2000, raw: 1000, n: 5},
		"tail_us":        {v: 300, raw: 300, n: 5},
	} {
		if got := v.vals[name]; got != want {
			t.Errorf("%s filed as %+v, want %+v", name, got, want)
		}
	}
	if a, b := refLoop(1), refLoop(1); a != b || a == refLoop(2) {
		t.Errorf("the reference loop is not a function of its seed alone: %d %d", a, b)
	}
}

func TestLateRung(t *testing.T) {
	late := rungResult{rate: 8000, latP99: openLateLimit + time.Microsecond}
	onTime := rungResult{rate: 8000, latP99: openLateLimit}
	if late.valid() || !onTime.valid() {
		t.Fatalf("valid: late=%v on time=%v", late.valid(), onTime.valid())
	}
	// A phase that says its generator was late is filed under lateScore,
	// with its set-up; a rehearsal files nothing.
	r := newReport()
	ph := newPhases(r, func(int) (int, error) { return 0, nil }, func(int) {})
	ph.ref = func() (time.Duration, error) { return refNominal, nil } // the test binary is not the benchmark
	res := onTime
	measure := func(_ int, v *phaseValues) error {
		if !res.valid() {
			v.disturbed()
		}
		v.put("x", 1, 10)
		return nil
	}
	if err := ph.rehearse(measure); err != nil || len(r.phases) != 0 {
		t.Fatalf("rehearsal: err=%v filed=%v", err, r.phases)
	}
	for _, res = range []rungResult{onTime, late} {
		if err := ph.run(measure); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.phases["x"]; len(got) != 2 || got[0].stolen == lateScore || got[1].stolen != lateScore || got[1].n != 10 {
		t.Errorf("phases filed as %v", got)
	}
	if got := r.phases["setup_s"]; len(got) != 2 || got[1].stolen != lateScore {
		t.Errorf("set-up samples: %v", got)
	}
}

func TestSeedFixesInputs(t *testing.T) {
	mk := func(seed uint64) *schedule {
		s := &schedule{}
		s.fill(newRand(seed, 3), openStairStart, time.Second, openLongFrac, openShort, openLong)
		return s
	}
	a, b, c := mk(42), mk(42), mk(43)
	if !slices.Equal(a.due, b.due) || !slices.Equal(a.reqs, b.reqs) {
		t.Errorf("same seed, different schedules")
	}
	if slices.Equal(a.due, c.due) {
		t.Errorf("different seeds, same schedule")
	}
	c.fill(newRand(42, 3), openStairStart, time.Second, openLongFrac, openShort, openLong)
	if !slices.Equal(a.due, c.due) || !slices.Equal(a.reqs, c.reqs) || a.longs != c.longs {
		t.Errorf("a refilled schedule differs from a fresh one")
	}
	if !slices.IsSorted(a.due) || a.due[len(a.due)-1] >= time.Second {
		t.Errorf("arrivals not ascending within the rung")
	}
	// ~8000 arrivals, ~0.5 % long, each carrying its service time as hint.
	if n := len(a.due); n < 7500 || n > 8500 {
		t.Errorf("%d arrivals in 1 s at %v req/s", n, openStairStart)
	}
	longs := 0
	for i, q := range a.reqs {
		if q.idx != i {
			t.Fatalf("request %d owns slot %d", i, q.idx)
		}
		if q.long {
			longs++
		}
		if want := map[bool]time.Duration{false: openShort, true: openLong}[q.long]; q.ServiceHint() != want {
			t.Fatalf("request %d: hint %v, want %v", i, q.ServiceHint(), want)
		}
	}
	if longs != a.longs || longs < 15 || longs > 80 {
		t.Errorf("%d long requests (schedule says %d)", longs, a.longs)
	}

	x, y, z := kvOps(newRand(7, 0), 1000, 100, 200, kvPutFrac), kvOps(newRand(7, 0), 1000, 100, 200, kvPutFrac), kvOps(newRand(7, 1), 1000, 100, 200, kvPutFrac)
	if !slices.Equal(x, y) || slices.Equal(x, z) {
		t.Errorf("kvOps: same stream equal=%v, other stream equal=%v", slices.Equal(x, y), slices.Equal(x, z))
	}
	puts := 0
	for _, op := range x {
		if op.key < 100 || op.key >= 200 {
			t.Fatalf("key %d outside the connection's range", op.key)
		}
		if op.put {
			puts++
		}
	}
	if puts < 150 || puts > 250 {
		t.Errorf("%d PUTs of 1000, want about 200", puts)
	}
}

func TestKVValueCheck(t *testing.T) {
	a, b, c := make([]byte, kvValSize), make([]byte, kvValSize), make([]byte, kvValSize)
	fillKVValue(a, 7, 1)
	fillKVValue(b, 7, 2)
	fillKVValue(c, 8, 1)
	if string(a) == string(b) || string(a) == string(c) {
		t.Fatalf("values collide: %q %q %q", a, b, c)
	}
	if strings.ContainsAny(string(a), "\n\r ") {
		t.Fatalf("value %q cannot ride the text protocol", a)
	}
	kc := &kvConn{want: make([]byte, kvValSize)}
	get := kvOp{key: 7}
	kc.check(proto.Resp{Status: proto.StValue, ID: 3, Payload: b}, get, 3, 2)
	kc.check(proto.Resp{Status: proto.StOK, ID: 4}, kvOp{put: true, key: 7}, 4, 3)
	if kc.wrong != 0 {
		t.Fatalf("correct responses counted wrong")
	}
	kc.check(proto.Resp{Status: proto.StValue, ID: 3, Payload: a}, get, 3, 2)             // an older PUT's value
	kc.check(proto.Resp{Status: proto.StValue, ID: 3, Payload: c[:]}, kvOp{key: 7}, 3, 1) // another key's value
	kc.check(proto.Resp{Status: proto.StValue, ID: 9, Payload: b}, get, 3, 2)             // another request's id
	kc.check(proto.Resp{Status: proto.StNotFound, ID: 3}, get, 3, 2)
	if kc.wrong != 4 {
		t.Errorf("wrong = %d, want 4", kc.wrong)
	}
}

func TestReconcile(t *testing.T) {
	want := []metricSpec{{Name: "live.a"}, {Name: "netsrv.b"}, {Name: "kv.c"}}
	r := newReport()
	r.set("live.a", 1)
	r.set("kv.c", 3)
	r.reconcile(want, []string{"live.", "kv."}, true)
	if len(r.violations) != 0 || r.metrics["netsrv.b"] != 0 {
		t.Errorf("off-path layer: violations=%v metrics=%v", r.violations, r.metrics)
	}

	r = newReport()
	r.set("live.a", 1)
	r.set("made.up", 2)
	r.reconcile(want, []string{"live.", "kv."}, true)
	if len(r.violations) != 2 {
		t.Errorf("want one missing (kv.c) and one unnamed (made.up) violation, got %v", r.violations)
	}
	if _, ok := r.metrics["made.up"]; ok {
		t.Errorf("an unnamed metric would still be printed")
	}

	// Untraced: every end-to-end metric is on every workload's path.
	r = newReport()
	r.reconcile([]metricSpec{{Name: "p50_us"}}, nil, false)
	if len(r.violations) != 1 {
		t.Errorf("a missing end-to-end metric passed: %v", r.violations)
	}
}
