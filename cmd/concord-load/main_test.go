package main

import (
	"bufio"
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"concord/internal/obs"
	"concord/internal/proto"
)

// TestArrivalsMeanRate: the schedule offers the rate it was asked for —
// the n-th arrival lands at n/rate — and is a function of the seed.
func TestArrivalsMeanRate(t *testing.T) {
	const rate = 10000.0
	const d = 20 * time.Second
	at := arrivals(7, rate, d)
	if want := rate * d.Seconds(); float64(len(at)) < 0.9*want || float64(len(at)) > 1.1*want {
		t.Fatalf("%d arrivals in %v, want %.0f ±10%%", len(at), d, want)
	}
	for _, n := range []int{1000, len(at)} {
		got, want := at[n-1].Seconds(), float64(n)/rate
		if got < 0.9*want || got > 1.1*want {
			t.Errorf("arrival %d at %.4fs, want %.4fs ±10%%", n, got, want)
		}
	}
	for i := 1; i < len(at); i++ {
		if at[i] < at[i-1] {
			t.Fatalf("arrival %d at %v precedes arrival %d at %v", i, at[i], i-1, at[i-1])
		}
	}
	if at[len(at)-1] >= d {
		t.Fatalf("last arrival %v not inside the %v run", at[len(at)-1], d)
	}
	if !reflect.DeepEqual(at, arrivals(7, rate, d)) {
		t.Fatal("same seed and rate gave a different schedule")
	}
}

func TestClassPicker(t *testing.T) {
	if pick, err := classPickerFor(""); err != nil || pick != nil {
		t.Fatalf("empty spec: picker non-nil or err=%v, want nil/nil", err)
	}
	pick, err := classPickerFor("critical")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	if name, code := pick(rng); name != "critical" || code != 1 {
		t.Fatalf("pinned class = %s/%d, want critical/1", name, code)
	}

	pick, err = classPickerFor("critical:1,standard:6,sheddable:3")
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		name, code := pick(rng)
		if sloClasses[name] != code {
			t.Fatalf("picker returned mismatched pair %s/%d", name, code)
		}
		counts[name]++
	}
	for name, wantFrac := range map[string]float64{"critical": 0.1, "standard": 0.6, "sheddable": 0.3} {
		frac := float64(counts[name]) / n
		if math.Abs(frac-wantFrac) > 0.02 {
			t.Errorf("%s drawn %.3f of the time, want %.2f", name, frac, wantFrac)
		}
	}

	for _, bad := range []string{"premium", "critical:x", "critical:-1", "critical:0"} {
		if _, err := classPickerFor(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// TestShedCountedApart: SHED replies land in their own tally (and count
// as non-completions), in both the text-token and binary-status paths.
func TestShedCountedApart(t *testing.T) {
	bin := proto.AppendResponse(nil, proto.StShed, 0, nil)
	bin = proto.AppendResponse(bin, proto.StOverloaded, 0, nil)
	for name, c := range map[string]codec{
		"text":   textCodec{bufio.NewReader(strings.NewReader("SHED\nOVERLOADED\n"))},
		"binary": binaryCodec{proto.NewRespReader(bytes.NewReader(bin), 0)},
	} {
		f := &fleet{lg: NewLog(0)}
		for i := 0; i < 2; i++ {
			_, status, trailer, err := c.read()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			f.record(op{}, time.Microsecond, status, trailer)
		}
		fs := &f.fails
		if fs.shed.Load() != 1 || fs.overloaded.Load() != 1 || fs.other.Load() != 0 {
			t.Errorf("%s: counts shed=%d overloaded=%d other=%d, want 1/1/0",
				name, fs.shed.Load(), fs.overloaded.Load(), fs.other.Load())
		}
		if fs.total() != 2 || len(f.lg.Snapshot()) != 0 {
			t.Errorf("%s: total = %d, completions = %d, want 2 and 0", name, fs.total(), len(f.lg.Snapshot()))
		}
	}
}

// TestPrintHistogram: one bar line per non-empty octave of the latency
// sketch, bounds in µs, bars proportional to the fullest octave.
func TestPrintHistogram(t *testing.T) {
	var sk obs.QuantileSketch
	for i := 0; i < 4; i++ {
		sk.Observe(1500) // [1024, 2048) ns
	}
	sk.Observe(3_000_000) // [2097152, 4194304) ns
	sk.Observe(-1)        // clamps into the lowest octave
	var b strings.Builder
	printHistogram(&b, sk.Snapshot())
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d lines, want one per non-empty octave (3):\n%s", len(lines), b.String())
	}
	if !strings.Contains(lines[1], "1.0-2.0") || !strings.Contains(lines[1], " 4 "+strings.Repeat("#", 40)) {
		t.Errorf("fullest octave line = %q", lines[1])
	}
	if !strings.Contains(lines[2], "2097.2-4194.3") || !strings.HasSuffix(lines[2], " 1 "+strings.Repeat("#", 10)) {
		t.Errorf("millisecond octave line = %q", lines[2])
	}
}
