package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one interval at a layer boundary, recorded by the benchmark's
// own code around its calls into the layer. Spans of one request share
// an id; parent names the span of the same request that caused this one.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the phase's base time
	End    int64  `json:"end_ns"`
}

// spanRequests bounds the trace file: every traced request is measured
// and counted in the per-layer metrics, the first spanRequests of each
// phase are written out as spans.
const spanRequests = 2000

// spanLog keeps spans in memory until the run ends. The timed loops write
// raw timestamps into arrays they own; spans are built from those arrays
// after the phase, so nothing here is concurrent or on a timed path.
type spanLog struct {
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{} }

func (l *spanLog) add(id int, name, parent string, start, end time.Duration) {
	l.spans = append(l.spans, span{id, name, parent, int64(start), int64(end)})
}

func (l *spanLog) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	raw, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, l.spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}
	fmt.Printf("trace: %d spans -> %s\n", len(l.spans), path)
	return nil
}

// chain adds the span of one served request, [at, at+lat], and under it
// the runtime's Breakdown components (row i of col) laid end to end in
// the order a request goes through them. What the components leave of
// the span is its self time: the caller's side of the call.
func (l *spanLog) chain(id int, name, parent string, at, lat time.Duration, col *breakdowns, i int) {
	l.add(id, name, parent, at, at+lat)
	t := at
	for _, part := range []struct {
		name string
		ns   int64
	}{
		{"live.handoff", col.handoff[i]},
		{"live.queue", col.queue[i]},
		{"live.service", col.service[i]},
		{"live.preempted", col.preempted[i]},
	} {
		d := time.Duration(part.ns)
		l.add(id, part.name, name, t, t+d)
		t += d
	}
}
