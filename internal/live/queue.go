// Scheduling-policy layer: the central queue. All queue order decisions
// live behind internal/policy.Queue[*task] (FCFS or SRPT, selected by
// Options.Policy); this file only adapts that single-goroutine
// interface for shard-concurrent access and bolts on what the policies
// deliberately don't know about: deadlines.
//
// Expiry uses a deadline min-heap plus tombstones instead of scanning:
// the old dispatcher swept the whole FIFO every millisecond (O(n)
// per sweep, O(n·m) per request lifetime at depth n) and spliced
// mid-slice on work-conserving steals. Here the sweep pops only
// already-expired heap heads (O(log n) each), the popped task is marked
// dead in place, and the policy queue drops tombstones lazily on Pop —
// no mid-structure removal ever happens, so dispatch cost stays flat
// with depth (see BenchmarkDispatchDepth10k).
package live

import (
	"sync"
	"sync/atomic"
	"time"

	"concord/internal/policy"
)

// dlEntry is one deadline-heap element.
type dlEntry struct {
	at time.Time
	t  *task
}

// centralQueue is one shard's run queue: a policy.Queue[*task] under a
// mutex (the owning dispatcher pushes and pops; sibling shards pop
// non-started tasks when stealing), a deadline min-heap, and an atomic
// live-length mirror that Depths and steal-victim selection read
// without the lock.
type centralQueue struct {
	mu sync.Mutex
	q  policy.Queue[*task]
	dl []dlEntry
	// length counts live (non-tombstoned) queued tasks.
	length atomic.Int64
	// critical counts live queued ClassCritical tasks — the
	// dispatcher's lock-free "is protected work waiting?" probe that
	// tightens lower-class quanta while critical work is queued.
	critical atomic.Int64
}

// newCentralQueue builds a queue with the named discipline.
func newCentralQueue(name string) (*centralQueue, error) {
	q, err := policy.NewQueue[*task](name)
	if err != nil {
		return nil, err
	}
	return &centralQueue{q: q}, nil
}

// Len returns the live queue length without taking the lock.
func (c *centralQueue) Len() int { return int(c.length.Load()) }

// CriticalLen returns the live queued ClassCritical count without
// taking the lock.
func (c *centralQueue) CriticalLen() int { return int(c.critical.Load()) }

// Push enqueues t. The caller must have finished all writes to the
// task: once inside, a sibling shard may pop it.
func (c *centralQueue) Push(t *task) {
	c.mu.Lock()
	c.put(t)
	c.mu.Unlock()
}

// put is the one place a task enters the policy queue: membership flag,
// deadline-heap entry and the length/critical mirrors. Callers hold mu.
func (c *centralQueue) put(t *task) {
	t.inQueue = true
	c.q.Push(t, t.started)
	if !t.deadline.IsZero() && !t.inDL {
		t.inDL = true
		c.dlPush(dlEntry{at: t.deadline, t: t})
	}
	c.mirror(t, 1)
}

// mirror moves the lock-free length/critical counts by n (±1) for one
// live task.
func (c *centralQueue) mirror(t *task, n int64) {
	c.length.Add(n)
	if SLOClass(t.class) == ClassCritical {
		c.critical.Add(n)
	}
}

// take is the one place a live task leaves the policy queue: it pops by
// the discipline — never-started tasks only when nonStarted, what the
// work-conserving dispatcher may run (§3.3) and sibling shards may steal
// — discarding tombstones (expired by the sweep while queued) on the
// way. Callers hold mu.
func (c *centralQueue) take(nonStarted bool) (*task, bool) {
	for {
		var t *task
		var ok bool
		if nonStarted {
			t, ok = c.q.PopNonStarted()
		} else {
			t, ok = c.q.Pop()
		}
		if !ok {
			return nil, false
		}
		if t.dead {
			continue
		}
		t.inQueue = false
		c.mirror(t, -1)
		return t, true
	}
}

// Pop removes and returns the next live task per the discipline.
func (c *centralQueue) Pop() (*task, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.take(false)
}

// PopNonStarted removes and returns the next live never-started task.
func (c *centralQueue) PopNonStarted() (*task, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.take(true)
}

// drain takes every live task in discipline order. Callers hold mu.
func (c *centralQueue) drain() []*task {
	var out []*task
	for t, ok := c.take(false); ok; t, ok = c.take(false) {
		out = append(out, t)
	}
	return out
}

// SweepExpired pops every deadline at or before now off the heap and
// returns the expired tasks that were still queued, tombstoning their
// policy-queue entries in place. Heap entries whose task has since left
// the queue are dropped (the task re-adds itself on its next Push).
func (c *centralQueue) SweepExpired(now time.Time) []*task {
	c.mu.Lock()
	var out []*task
	for len(c.dl) > 0 && !c.dl[0].at.After(now) {
		e := c.dlPop()
		e.t.inDL = false
		if e.t.inQueue && !e.t.dead {
			e.t.dead = true
			c.mirror(e.t, -1)
			out = append(out, e.t)
		}
	}
	c.mu.Unlock()
	return out
}

// DrainAll removes and returns every live task in discipline order, for
// abort-mode failPending.
func (c *centralQueue) DrainAll() []*task {
	c.mu.Lock()
	out := c.drain()
	for _, t := range out {
		t.inDL = false
	}
	c.dl = c.dl[:0]
	c.mu.Unlock()
	return out
}

// ---------- deadline min-heap (ordered by at) ----------

func (c *centralQueue) dlPush(e dlEntry) {
	c.dl = append(c.dl, e)
	i := len(c.dl) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !c.dl[i].at.Before(c.dl[parent].at) {
			break
		}
		c.dl[i], c.dl[parent] = c.dl[parent], c.dl[i]
		i = parent
	}
}

func (c *centralQueue) dlPop() dlEntry {
	e := c.dl[0]
	last := len(c.dl) - 1
	c.dl[0] = c.dl[last]
	c.dl[last] = dlEntry{}
	c.dl = c.dl[:last]
	n := len(c.dl)
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && c.dl[l].at.Before(c.dl[smallest].at) {
			smallest = l
		}
		if r < n && c.dl[r].at.Before(c.dl[smallest].at) {
			smallest = r
		}
		if smallest == i {
			return e
		}
		c.dl[i], c.dl[smallest] = c.dl[smallest], c.dl[i]
		i = smallest
	}
}
