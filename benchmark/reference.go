package main

import (
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The reference loop. The speed of this host drifts: by 10–25 % within
// minutes as its neighbours load the memory system, and between a fast and
// a slow state 1.4–1.9× apart that it keeps for minutes to an hour
// (README.md, Host facts). No regression bound covers either. So every
// phase first times a fixed piece of work that no change to the repository
// can touch, and its CPU-bound figures are filed at reference speed: a time
// multiplied by refNominal/reference, a rate by the inverse. A faster
// program still reads faster; a faster or slower host does not.
//
// The work is four fifths allocating small objects and dropping them
// (8 MiB a copy, so the allocator, fresh pages and the collector, which
// every workload here leans on) and one fifth a chain of dependent
// multiplications. The mix was chosen by measurement, README.md has it:
// of ten candidate loops the allocating one followed the workloads' drift
// best (correlation 0.9 across 12 runs each) but over-corrected them
// alone. Every processor runs its own copy at the same time, as the
// workloads keep every processor busy, and the copies' times are averaged.
//
// The loop runs in a process of its own (this program started again with
// -reference), because what an allocating loop costs depends on the heap
// it finds: run inside the benchmark's process it took 7.5 ms after a
// dispatch_null phase and 10.5 ms after a sim_sweep pass, and a change to
// the program that left a different heap behind would have moved the
// scale it is measured on. A fresh process finds the same heap every time.
const (
	refAllocs   = 1 << 17
	refMulSteps = 3 << 18
	refRounds   = 5 // per phase; the fastest round counts
	// refNominal is the reference time all figures are scaled to. Only
	// ratios matter; the constant puts the reported figures near what a run
	// measures when the host is in its usual state.
	refNominal = 10500 * time.Microsecond
)

// refNode is the object the loop allocates: 64 bytes, one pointer.
type refNode struct {
	next *refNode
	v    [7]uint64
}

func refLoop(seed uint64) uint64 {
	var head *refNode
	h := seed
	for i := uint64(0); i < refAllocs; i++ {
		n := &refNode{next: head}
		n.v[0] = h
		h = (h ^ i) * 1099511628211
		head = n
		if i%64 == 0 {
			head = nil // at most 64 nodes are reachable
		}
	}
	if head != nil {
		h ^= head.v[0]
	}
	for i := uint64(0); i < refMulSteps; i++ {
		h = (h ^ i) * 1099511628211
		h ^= h >> 29
	}
	return h
}

// reference times refRounds rounds of the loop on copies goroutines at
// once and returns the fastest round's mean time per copy. Fastest, not
// median: a round is 10 ms, its first pass faults the heap in, and a stall
// of the host's or a collection more than usual lengthens it; nothing
// shortens it. One phase's reference still swings ±10 %; the median over a
// run's phases takes that out.
func reference(copies int) time.Duration {
	rounds := make([]time.Duration, refRounds)
	times := make([]time.Duration, copies)
	sums := make([]uint64, copies)
	for r := range rounds {
		var wg sync.WaitGroup
		for c := 0; c < copies; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				start := time.Now()
				sums[c] = refLoop(uint64(c + 1))
				times[c] = time.Since(start)
			}(c)
		}
		wg.Wait()
		var sum time.Duration
		for c, t := range times {
			sum += t
			sink += int(sums[c] & 1)
		}
		rounds[r] = sum / time.Duration(copies)
	}
	return slices.Min(rounds)
}

// referenceFlag makes the program time the loop and print the result in
// nanoseconds instead of running a workload.
const referenceFlag = "-reference"

// referenceProcess is reference in a fresh process.
func referenceProcess() (time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	out, err := exec.Command(self, referenceFlag).Output()
	if err != nil {
		return 0, fmt.Errorf("reference loop: %w", err)
	}
	ns, err := strconv.ParseInt(strings.TrimSpace(string(out)), 10, 64)
	if err != nil || ns <= 0 {
		return 0, fmt.Errorf("reference loop printed %q", out)
	}
	return time.Duration(ns), nil
}
