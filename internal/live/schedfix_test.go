package live

// Regression coverage for two scheduling bugs:
//
//  1. SRPT priority inversion: RemainingCycles used to clamp hint−run at
//     zero, so un-hinted requests (hintNS == 0) and requests that had
//     outrun their estimate keyed to the *head* of the heap and starved
//     genuinely short work. Fixed with three disjoint key bands
//     (in-budget / over-budget / unhinted sentinel) — see task.go.
//  2. Local-queue deadline gap: workerLoop never checked expiry at local
//     dequeue, so a request whose deadline passed while it sat in a
//     worker's JBSQ queue behind a slow request ran to a too-late
//     success instead of answering ErrDeadlineExceeded. The central
//     sweep cannot see such a request — dequeue is the only
//     enforcement point once it has been dispatched.
//
// Each test here fails against the pre-fix code.

import (
	"errors"
	"sync"
	"testing"
	"time"

	"concord/internal/policy"
	"concord/internal/sim"
)

// TestSRPTKeyBands pins the three-band key contract directly.
func TestSRPTKeyBands(t *testing.T) {
	key := func(hintNS, runNS int64) int64 {
		tk := &task{taskState: taskState{hintNS: hintNS, runNS: runNS}}
		return int64(tk.RemainingCycles())
	}

	// In-budget: key is remaining work.
	if got := key(1000, 400); got != 600 {
		t.Fatalf("in-budget key = %d, want 600", got)
	}
	// Exactly on budget still counts as in-budget (key 0 is fine here:
	// zero remaining work genuinely is the shortest remaining).
	if got := key(1000, 1000); got != 0 {
		t.Fatalf("on-budget key = %d, want 0", got)
	}
	// Over-budget: banded above any in-budget key, ordered by overage.
	ob1, ob2 := key(1000, 1500), key(1000, 9000)
	if ob1 < int64(policy.OverBudgetKeyBase) || ob2 < int64(policy.OverBudgetKeyBase) {
		t.Fatalf("over-budget keys %d, %d below band base %d", ob1, ob2, policy.OverBudgetKeyBase)
	}
	if ob1 >= ob2 {
		t.Fatalf("larger overage must sort later: %d >= %d", ob1, ob2)
	}
	// Un-hinted: the max-key sentinel, above every over-budget key.
	if got := key(0, 12345); got != int64(policy.UnhintedKey) {
		t.Fatalf("un-hinted key = %d, want sentinel %d", got, policy.UnhintedKey)
	}
	if ob2 >= int64(policy.UnhintedKey) {
		t.Fatalf("over-budget key %d reached the un-hinted sentinel", ob2)
	}
	// Pathological overage saturates below the sentinel, never wraps.
	if got := key(1, int64(^uint64(0)>>1)); got >= int64(policy.UnhintedKey) || got < int64(policy.OverBudgetKeyBase) {
		t.Fatalf("saturated over-budget key %d escaped the band", got)
	}
}

// TestSRPTQueueOrdersBands pushes crafted tasks straight into an SRPT
// central queue and checks the pop order across all three bands.
// Pre-fix, the over-budget and un-hinted tasks clamped to key 0 and
// popped first — the exact inversion.
func TestSRPTQueueOrdersBands(t *testing.T) {
	q, err := newCentralQueue(PolicySRPT)
	if err != nil {
		t.Fatal(err)
	}
	us := int64(time.Microsecond)
	tasks := map[string]*task{
		"unhinted":   {taskState: taskState{id: 1}},
		"over-190us": {taskState: taskState{id: 2, hintNS: 10 * us, runNS: 200 * us}},
		"over-70us":  {taskState: taskState{id: 3, hintNS: 50 * us, runNS: 120 * us}},
		"rem-100us":  {taskState: taskState{id: 4, hintNS: 100 * us}},
		"rem-50us":   {taskState: taskState{id: 5, hintNS: 300 * us, runNS: 250 * us}},
	}
	for _, name := range []string{"unhinted", "over-190us", "over-70us", "rem-100us", "rem-50us"} {
		q.Push(tasks[name])
	}
	want := []string{"rem-50us", "rem-100us", "over-70us", "over-190us", "unhinted"}
	for i, name := range want {
		got, ok := q.Pop()
		if !ok {
			t.Fatalf("queue dry after %d pops, want %d", i, len(want))
		}
		if got != tasks[name] {
			t.Fatalf("pop %d: got task %d, want %q (id %d)", i, got.id, name, tasks[name].id)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("queue not empty after popping all tasks")
	}
	_ = sim.Cycles(0) // keep the import honest about what keys are
}

// labeledReq is a payload with an optional SRPT hint and a label the
// handler records, so tests can observe run order across hinted and
// un-hinted requests in one stream.
type labeledReq struct {
	label string
	hint  time.Duration // 0 = does not implement a useful hint
}

func (p labeledReq) ServiceHint() time.Duration { return p.hint }

// unlabeledReq is a payload that does not implement Hinted at all.
type unlabeledReq struct {
	label string
}

// classedReq is a labeled, hinted payload under an SLO class.
type classedReq struct {
	labeledReq
	class SLOClass
}

func (p classedReq) SLOClass() SLOClass { return p.class }

// orderRecHandler blocks on "block" payloads and records the label of
// everything else it runs.
type orderRecHandler struct {
	release chan struct{}
	mu      sync.Mutex
	order   []string
}

func (h *orderRecHandler) Setup()          {}
func (h *orderRecHandler) SetupWorker(int) {}
func (h *orderRecHandler) Handle(ctx *Ctx, payload any) (any, error) {
	var label string
	switch p := payload.(type) {
	case string: // "block"
		<-h.release
		return p, nil
	case labeledReq:
		label = p.label
	case unlabeledReq:
		label = p.label
	case classedReq:
		label = p.label
	default:
		return payload, nil
	}
	h.mu.Lock()
	h.order = append(h.order, label)
	h.mu.Unlock()
	return label, nil
}

func (h *orderRecHandler) recorded() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.order...)
}

// TestSRPTUnhintedRunsLast: with the worker held busy, un-hinted
// requests queued alongside hinted ones must run after every hinted
// request, FIFO among themselves. Pre-fix they keyed to 0 and ran
// first, starving the genuinely short hinted work.
func TestSRPTUnhintedRunsLast(t *testing.T) {
	quietDispatcher(t)
	h := &orderRecHandler{release: make(chan struct{})}
	o := testOptions(1, 0)
	o.Policy = PolicySRPT
	o.QueueBound = 1
	s := New(h, o)
	s.Start()

	blocked := s.Submit("block")
	waitUntil(t, "the blocker to hold the worker", func() bool { return s.Depths().Workers[0] == 1 })

	var chans []<-chan Response
	submit := func(p any) { chans = append(chans, s.Submit(p)) }
	submit(unlabeledReq{label: "u1"})
	submit(labeledReq{label: "s-400", hint: 400 * time.Microsecond})
	submit(unlabeledReq{label: "u2"})
	submit(labeledReq{label: "s-100", hint: 100 * time.Microsecond})
	waitUntil(t, "all four to reach the central queue", func() bool { return s.Depths().Central == len(chans) })
	close(h.release)
	<-blocked
	for _, ch := range chans {
		if resp := <-ch; resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	s.Stop()

	want := []string{"s-100", "s-400", "u1", "u2"}
	got := h.recorded()
	if len(got) != len(want) {
		t.Fatalf("ran %d requests, want %d (%v)", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SRPT run order %v, want %v (un-hinted must run last, FIFO)", got, want)
		}
	}
}

// advanceClock moves the runtime's clock (nanotime) forward by d for
// every server in the process, so that a deadline or a quantum passes at
// once instead of after a sleep. It moves back when the test ends: the
// tracer keeps a clock of its own, and a later test's traced stamps must
// agree with it.
func advanceClock(t *testing.T, d time.Duration) {
	clockShift.Add(int64(d))
	t.Cleanup(func() { clockShift.Add(-int64(d)) })
}

// waitUntil polls cond every 100µs for up to 5s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestLocalQueueDeadlineEnforced is the deterministic deadline-gap
// repro: a short request is JBSQ-pushed behind a blocker into the
// single worker's local queue, its deadline passes while it waits
// there, and the blocker is then released. The central-queue sweep
// cannot see the request (it already left the central queue), so the
// worker's dequeue check is the only thing standing between it and a
// too-late success. Pre-fix it completed successfully; it must answer
// ErrDeadlineExceeded and count in Stats.Expired. The deadline is an
// hour, so it cannot pass before the request is where the test wants it,
// and the test moves the clock past it instead of waiting.
func TestLocalQueueDeadlineEnforced(t *testing.T) {
	h := &orderRecHandler{release: make(chan struct{})}
	o := testOptions(1, 0)
	o.QueueBound = 2
	o.RequestTimeout = time.Hour
	s := New(h, o)
	s.Start()

	blocked := s.Submit("block")
	waitUntil(t, "blocker to occupy the worker", func() bool {
		return s.Depths().Workers[0] == 1
	})

	late := s.Submit(unlabeledReq{label: "late"})
	waitUntil(t, "late request to reach the worker's local queue", func() bool {
		d := s.Depths()
		return d.Workers[0] == 2 && d.Central == 0 && d.Submit == 0
	})

	// Let the late request's deadline pass while it sits in the local
	// queue, invisible to the central sweep.
	advanceClock(t, o.RequestTimeout+time.Millisecond)
	close(h.release)
	<-blocked

	resp := <-late
	if !errors.Is(resp.Err, ErrDeadlineExceeded) {
		t.Fatalf("request expired in the local queue answered %v, want ErrDeadlineExceeded", resp.Err)
	}
	s.Stop()
	if got := s.Stats().Expired; got == 0 {
		t.Fatal("Stats.Expired did not count the local-queue expiry")
	}
	if order := h.recorded(); len(order) != 0 {
		t.Fatalf("expired request still ran: %v", order)
	}
}
