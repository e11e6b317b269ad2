package main

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestRecordSlowdown(t *testing.T) {
	r := Record{ServiceUS: 2, SojournUS: 10}
	if got := r.Slowdown(); got != 5 {
		t.Fatalf("slowdown = %v, want 5", got)
	}
	if !math.IsNaN((Record{}).Slowdown()) {
		t.Fatal("zero service time should give NaN slowdown")
	}
}

func TestLogSummarize(t *testing.T) {
	l := NewLog(10)
	for i := 1; i <= 100; i++ {
		l.Add(Record{Class: "x", ServiceUS: 1, SojournUS: float64(i), Preemptions: 1})
	}
	s := l.Summarize()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.P50 != 50 || s.P99 != 99 || s.P999 != 100 {
		t.Fatalf("percentiles = %v %v %v", s.P50, s.P99, s.P999)
	}
	if s.MeanPreemptions != 1 {
		t.Fatalf("mean preemptions = %v", s.MeanPreemptions)
	}
	if s.MeanSlowdown != 50.5 {
		t.Fatalf("mean slowdown = %v", s.MeanSlowdown)
	}
}

func TestEmptySummary(t *testing.T) {
	s := NewLog(0).Summarize()
	if s.Count != 0 || !math.IsNaN(s.P999) {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestConcurrentAdd(t *testing.T) {
	l := NewLog(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				l.Add(Record{ServiceUS: 1, SojournUS: 2})
			}
		}()
	}
	wg.Wait()
	if n := len(l.Snapshot()); n != 8000 {
		t.Fatalf("len = %d, want 8000", n)
	}
}

func TestSummaryString(t *testing.T) {
	l := NewLog(1)
	l.Add(Record{ServiceUS: 1, SojournUS: 2})
	s := l.Summarize().String()
	if !strings.Contains(s, "p99.9=") || !strings.Contains(s, "n=1") {
		t.Fatalf("summary string = %q", s)
	}
}
