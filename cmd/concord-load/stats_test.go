package main

import (
	"strings"
	"testing"

	"concord/internal/obs"
)

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

func TestParseStatsLine(t *testing.T) {
	line := "STATS submitted=10 completed=9 rejected=0 expired=0 aborted=0 " +
		"preemptions=3 dispatcher_run=1 steals=4 central=2 submitq=1 occ=1,0 " +
		"shardq=2,0 shardocc=1,0 p50_1s=3.0"
	s, err := parseStatsLine(line)
	if err != nil {
		t.Fatal(err)
	}
	if s.submitted != 10 || s.completed != 9 || s.steals != 4 {
		t.Fatalf("counters = %+v", s)
	}
	if s.central != 2 || s.submitq != 1 {
		t.Fatalf("depths = %+v", s)
	}
	if len(s.shardQ) != 2 || s.shardQ[0] != 2 || s.shardQ[1] != 0 {
		t.Fatalf("shardQ = %v", s.shardQ)
	}
	if len(s.shardOcc) != 2 || s.shardOcc[0] != 1 {
		t.Fatalf("shardOcc = %v", s.shardOcc)
	}
	if _, err := parseStatsLine("VALUE nope"); err == nil {
		t.Fatal("non-STATS line accepted")
	}
}

func TestWriteStatsCSVShardColumns(t *testing.T) {
	samples := []statsSample{
		{atMS: 100, submitted: 5, completed: 4, steals: 1, central: 3, submitq: 1,
			shardQ: []int{2, 1}, shardOcc: []int{1, 0}},
		{atMS: 200, submitted: 9, completed: 9, steals: 2, central: 0, submitq: 0,
			shardQ: []int{0, 0}, shardOcc: []int{0, 0}},
	}
	var sb strings.Builder
	if err := writeStatsCSV(&sb, samples); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d, want header + 2", len(lines))
	}
	wantHeader := "time_ms,submitted,completed,steals,central,submitq,shardq0,shardq1,shardocc0,shardocc1"
	if lines[0] != wantHeader {
		t.Fatalf("header = %q, want %q", lines[0], wantHeader)
	}
	if lines[1] != "100.0,5,4,1,3,1,2,1,1,0" {
		t.Fatalf("row 1 = %q", lines[1])
	}
}

func TestSummarizeShardDepths(t *testing.T) {
	if got := summarizeShardDepths(nil); got != nil {
		t.Fatalf("empty sample set summarized: %+v", got)
	}
	samples := []statsSample{
		{steals: 2, central: 4, submitq: 2, shardQ: []int{4, 0}, shardOcc: []int{2, 0}},
		{steals: 8, central: 0, submitq: 0, shardQ: []int{0, 2}, shardOcc: []int{0, 2}},
	}
	ds := summarizeShardDepths(samples)
	if ds.Shards != 2 || ds.Samples != 2 {
		t.Fatalf("shape = %+v", ds)
	}
	if ds.Steals != 6 {
		t.Fatalf("steals delta = %d, want 6", ds.Steals)
	}
	if ds.ShardQMean[0] != 2 || ds.ShardQMean[1] != 1 {
		t.Fatalf("shardq mean = %v", ds.ShardQMean)
	}
	if ds.ShardQMax[0] != 4 || ds.ShardQMax[1] != 2 {
		t.Fatalf("shardq max = %v", ds.ShardQMax)
	}
	if ds.CentralMean != 2 || ds.CentralMax != 4 {
		t.Fatalf("central = %+v", ds)
	}
}
