package live

// centralQueue unit tests: tombstone expiry, the deadline min-heap
// sweep, drain semantics, and the depth-10k dispatch micro-benchmark
// that pins the O(log n) hot path (the pre-refactor dispatcher swept
// the whole FIFO per millisecond and spliced mid-slice, both O(n)).

import (
	"testing"
	"time"
)

// qtask is a task with the given id and deadline (a nanotime; 0 = none).
func qtask(id uint64, deadline int64) *task {
	return &task{taskState: taskState{id: id, deadline: deadline}}
}

const (
	ms   = int64(time.Millisecond)
	sec  = int64(time.Second)
	hour = int64(time.Hour)
)

func TestCentralQueueSweepTombstones(t *testing.T) {
	q, err := newCentralQueue(PolicyFCFS)
	if err != nil {
		t.Fatal(err)
	}
	base := nanotime()
	soon := base + ms
	late := base + hour

	q.Push(qtask(1, soon))
	q.Push(qtask(2, late))
	q.Push(qtask(3, soon))
	if q.Len() != 3 {
		t.Fatalf("Len = %d, want 3", q.Len())
	}

	expired := q.SweepExpired(base + sec)
	if len(expired) != 2 {
		t.Fatalf("swept %d tasks, want 2", len(expired))
	}
	for _, e := range expired {
		if e.id != 1 && e.id != 3 {
			t.Fatalf("swept wrong task %d", e.id)
		}
	}
	if q.Len() != 1 {
		t.Fatalf("Len after sweep = %d, want 1", q.Len())
	}

	// Pop must skip the two tombstones and yield only the live task.
	got, ok := q.Pop()
	if !ok || got.id != 2 {
		t.Fatalf("Pop = %v/%v, want task 2", got, ok)
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop returned a tombstoned task")
	}
	if q.Len() != 0 {
		t.Fatalf("Len after drain = %d, want 0", q.Len())
	}
}

func TestCentralQueueSweepSkipsDeparted(t *testing.T) {
	q, err := newCentralQueue(PolicyFCFS)
	if err != nil {
		t.Fatal(err)
	}
	base := nanotime()
	tk := qtask(7, base+ms)
	q.Push(tk)
	if got, ok := q.Pop(); !ok || got.id != 7 {
		t.Fatalf("Pop = %v/%v", got, ok)
	}
	// The task left the queue (it is being dispatched); its stale heap
	// entry must be dropped without producing an expiry.
	if swept := q.SweepExpired(base + sec); len(swept) != 0 {
		t.Fatalf("sweep expired %d departed tasks", len(swept))
	}
	if len(q.dl) != 0 {
		t.Fatalf("%d deadline-heap entries left after the sweep", len(q.dl))
	}
	if tk.dead {
		t.Fatal("departed task tombstoned")
	}
	// A requeue after the sweep re-adds the deadline entry.
	q.Push(tk)
	if swept := q.SweepExpired(base + sec); len(swept) != 1 {
		t.Fatalf("requeued task not swept: got %d", len(swept))
	}
}

// TestCentralQueueSweepSkipsRecycled: a task that left the queue leaves
// its deadline-heap entry behind, and is recycled (release) for another
// request before the entry's deadline passes. Whether the new request
// is running elsewhere or queued here again under a later deadline, the
// leftover entry must not expire it: the sweep returns nothing and the
// new request stays live in the queue.
func TestCentralQueueSweepSkipsRecycled(t *testing.T) {
	for _, requeued := range []bool{false, true} {
		q, err := newCentralQueue(PolicyFCFS)
		if err != nil {
			t.Fatal(err)
		}
		base := nanotime()
		tk := qtask(1, base+ms)
		q.Push(tk)
		if got, ok := q.Pop(); !ok || got != tk {
			t.Fatalf("Pop = %v/%v, want the task", got, ok)
		}
		// Its request answered, the task is recycled for the next one, as
		// release does (minus the pool round trip, which may hand out
		// another task).
		tk.taskState = taskState{id: 2, deadline: base + hour}
		if requeued {
			q.Push(tk)
		}
		if swept := q.SweepExpired(base + sec); len(swept) != 0 {
			t.Fatalf("requeued=%v: the first request's heap entry expired the task's next request (id %d)",
				requeued, swept[0].id)
		}
		if tk.dead {
			t.Fatalf("requeued=%v: the recycled task was tombstoned", requeued)
		}
		if got, ok := q.Pop(); ok != requeued || (ok && got != tk) {
			t.Fatalf("requeued=%v: Pop = %v/%v after the sweep", requeued, got, ok)
		}
	}
}

func TestCentralQueuePopNonStartedSkipsTombstones(t *testing.T) {
	q, err := newCentralQueue(PolicyFCFS)
	if err != nil {
		t.Fatal(err)
	}
	base := nanotime()
	started := qtask(1, 0)
	started.started = true
	q.Push(started)
	q.Push(qtask(2, base+ms))
	q.Push(qtask(3, 0))
	q.SweepExpired(base + sec) // kills task 2

	got, ok := q.PopNonStarted()
	if !ok || got.id != 3 {
		t.Fatalf("PopNonStarted = %v/%v, want task 3", got, ok)
	}
	if got, ok := q.Pop(); !ok || got.id != 1 {
		t.Fatalf("Pop = %v/%v, want started task 1", got, ok)
	}
}

func TestCentralQueueDrainAll(t *testing.T) {
	for _, policy := range []string{PolicyFCFS, PolicySRPT} {
		q, err := newCentralQueue(policy)
		if err != nil {
			t.Fatal(err)
		}
		base := nanotime()
		q.Push(qtask(1, base+ms))
		q.Push(qtask(2, base+hour))
		q.Push(qtask(3, 0))
		q.SweepExpired(base + sec) // tombstones task 1

		out := q.DrainAll()
		if len(out) != 2 {
			t.Fatalf("[%s] drained %d tasks, want 2 live", policy, len(out))
		}
		for _, tk := range out {
			if tk.id == 1 {
				t.Fatalf("[%s] drain returned tombstoned task", policy)
			}
			if tk.dead {
				t.Fatalf("[%s] drained task %d tombstoned", policy, tk.id)
			}
		}
		if len(q.dl) != 0 {
			t.Fatalf("[%s] %d deadline-heap entries left after DrainAll", policy, len(q.dl))
		}
		if q.Len() != 0 {
			t.Fatalf("[%s] Len after DrainAll = %d", policy, q.Len())
		}
		if _, ok := q.Pop(); ok {
			t.Fatalf("[%s] Pop succeeded after DrainAll", policy)
		}
	}
}

func TestCentralQueueRejectsUnknownPolicy(t *testing.T) {
	if _, err := newCentralQueue("lifo"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// BenchmarkDispatchDepth10k pins the dispatch-path queue cost with 10k
// requests (all carrying deadlines) already queued: one Pop, one no-op
// deadline sweep, one Push per op. Before the heap+tombstone rework the
// sweep alone walked all 10k entries; now the head check is O(1) and
// expiry O(log n), so ns/op must stay flat in depth.
func BenchmarkDispatchDepth10k(b *testing.B) {
	for _, policy := range []string{PolicyFCFS, PolicySRPT} {
		b.Run(policy, func(b *testing.B) {
			q, err := newCentralQueue(policy)
			if err != nil {
				b.Fatal(err)
			}
			now := nanotime()
			for i := 0; i < 10000; i++ {
				q.Push(qtask(uint64(i), now+hour))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tk, ok := q.Pop()
				if !ok {
					b.Fatal("queue empty")
				}
				q.SweepExpired(now)
				q.Push(tk)
			}
		})
	}
}
