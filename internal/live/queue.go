// Scheduling-policy layer: the central queue. All queue order decisions
// live behind internal/policy.Queue[*task] (FCFS or SRPT, selected by
// Options.Policy); this file bolts on what the policies deliberately
// don't know about: deadlines, and the length mirrors read off the
// dispatcher. Like the policy queue it takes no lock: only the
// goroutine holding the dispatcher identity calls its methods, and that
// identity changes goroutine only through a go statement or a channel
// hand-off (adopt, runSlice), both of which order the accesses.
//
// Expiry uses a deadline min-heap plus tombstones instead of scanning:
// the old dispatcher swept the whole FIFO every millisecond (O(n)
// per sweep, O(n·m) per request lifetime at depth n) and spliced
// mid-slice when it ran a queued request itself. Here the sweep pops only
// already-expired heap heads (O(log n) each), the popped task is marked
// dead in place, and the policy queue drops tombstones lazily on Pop —
// no mid-structure removal ever happens, so dispatch cost stays flat
// with depth (see BenchmarkDispatchDepth10k). A task that leaves the
// queue leaves its heap entry behind, just as lazily: the entry records
// the task's gen, every departure moves gen on, and the sweep drops an
// entry whose gen is behind — without touching anything else of a task
// that may by then be carrying another request.
package live

import (
	"sync/atomic"

	"concord/internal/policy"
)

// dlEntry is one deadline-heap element: t's deadline when t.gen was gen.
type dlEntry struct {
	at  int64
	gen uint64
	t   *task
}

// centralQueue is the dispatcher's run queue: a policy.Queue[*task], a
// deadline min-heap, and atomic mirrors of its live length that place,
// Poll and Depths read from other goroutines.
type centralQueue struct {
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

// Len returns the live queue length; any goroutine may call it.
func (c *centralQueue) Len() int { return int(c.length.Load()) }

// CriticalLen returns the live queued ClassCritical count; any goroutine
// may call it.
func (c *centralQueue) CriticalLen() int { return int(c.critical.Load()) }

// Push is the one place a task enters the policy queue: deadline-heap
// entry and the length/critical mirrors.
func (c *centralQueue) Push(t *task) {
	c.q.Push(t, t.started)
	if t.deadline != 0 {
		c.dlPush(dlEntry{at: t.deadline, gen: t.gen, t: t})
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
// work-conserving dispatcher may run (§3.3) — discarding tombstones
// (expired by the sweep while queued) on the way.
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
		t.gen++ // its heap entry, if any, is stale from here on
		c.mirror(t, -1)
		return t, true
	}
}

// Pop removes and returns the next live task per the discipline.
func (c *centralQueue) Pop() (*task, bool) { return c.take(false) }

// PopNonStarted removes and returns the next live never-started task.
func (c *centralQueue) PopNonStarted() (*task, bool) { return c.take(true) }

// SweepExpired pops every deadline at or before now (a nanotime) off the
// heap and returns the expired tasks that were still queued,
// tombstoning their policy-queue entries in place. An entry whose task
// has left the queue since it was pushed — its gen has moved on — is
// dropped unread: the task may be running, queued elsewhere, or
// recycled (a requeue pushes a fresh entry). A current entry's task is
// still in this queue.
func (c *centralQueue) SweepExpired(now int64) []*task {
	var out []*task
	for len(c.dl) > 0 && c.dl[0].at <= now {
		e := c.dlPop()
		if e.t.gen != e.gen {
			continue
		}
		e.t.gen++
		e.t.dead = true
		c.mirror(e.t, -1)
		out = append(out, e.t)
	}
	return out
}

// DrainAll removes and returns every live task in discipline order, for
// abort-mode failPending.
func (c *centralQueue) DrainAll() []*task {
	var out []*task
	for t, ok := c.take(false); ok; t, ok = c.take(false) {
		out = append(out, t)
	}
	c.dl = c.dl[:0]
	return out
}

// ---------- deadline min-heap (ordered by at) ----------

func (c *centralQueue) dlPush(e dlEntry) {
	c.dl = append(c.dl, e)
	i := len(c.dl) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if c.dl[i].at >= c.dl[parent].at {
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
		if l < n && c.dl[l].at < c.dl[smallest].at {
			smallest = l
		}
		if r < n && c.dl[r].at < c.dl[smallest].at {
			smallest = r
		}
		if smallest == i {
			return e
		}
		c.dl[i], c.dl[smallest] = c.dl[smallest], c.dl[i]
		i = smallest
	}
}
