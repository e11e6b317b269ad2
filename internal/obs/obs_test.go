package obs

import (
	"sync"
	"testing"
	"time"
)

func TestKindStrings(t *testing.T) {
	for k := Kind(1); k < kindMax; k++ {
		if k.String() == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if Kind(0).String() != "unknown" || Kind(200).String() != "unknown" {
		t.Fatal("out-of-range kinds should render unknown")
	}
	if !EvComplete.Terminal() || !EvReject.Terminal() || EvYield.Terminal() {
		t.Fatal("Terminal misclassifies")
	}
}

func TestRecordSnapshotRoundTrip(t *testing.T) {
	tr := NewTracer(2, 64)
	tr.Record(0, EvStart, 7, 3, 40)
	tr.Record(1, EvYield, 8, 0, 10)
	tr.Record(WriterDispatcher, EvDispatch, 7, 1, 30)
	tr.Record(WriterClient, EvSubmit, 9, -2, 20)
	evs := tr.Snapshot()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	rings := map[int]bool{}
	for _, e := range evs {
		rings[e.Ring] = true
	}
	for _, want := range []int{0, 1, WriterDispatcher, WriterClient} {
		if !rings[want] {
			t.Fatalf("missing events from writer %d: %+v", want, evs)
		}
	}
	for _, e := range evs {
		if e.Ring == WriterClient {
			if e.Kind != EvSubmit || e.Req != 9 || e.Arg != -2 {
				t.Fatalf("client event corrupted: %+v (negative arg must sign-extend)", e)
			}
		}
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].TS <= evs[i-1].TS {
			t.Fatalf("snapshot not in stamp order: %+v", evs)
		}
	}
	if evs[0].TS != 10 || evs[3].TS != 40 {
		t.Fatalf("events must carry the stamps their writers gave: %+v", evs)
	}
}

// TestRingWraparound overfills one writer's ring and checks the
// snapshot keeps only the newest events, all intact.
func TestRingWraparound(t *testing.T) {
	tr := NewTracer(1, 8) // ring capacity 8
	const total = 20
	for i := 1; i <= total; i++ {
		tr.Record(0, EvComplete, uint64(i), int64(i), int64(i))
	}
	evs := tr.Snapshot()
	if len(evs) != 8 {
		t.Fatalf("got %d events after wraparound, want 8", len(evs))
	}
	for i, e := range evs {
		wantReq := uint64(total - 8 + 1 + i)
		if e.Req != wantReq || e.Arg != int64(wantReq) {
			t.Fatalf("event %d = %+v, want req %d (oldest events must be the dropped ones)", i, e, wantReq)
		}
	}
}

func TestRingSizeRounding(t *testing.T) {
	tr := NewTracer(0, 5) // workers clamped to 1, size rounded to 8
	if tr.Workers() != 1 {
		t.Fatalf("workers = %d", tr.Workers())
	}
	for i := 0; i < 8; i++ {
		tr.Record(0, EvSubmit, uint64(i+1), 0, int64(i))
	}
	if got := len(tr.Snapshot()); got != 8 {
		t.Fatalf("rounded ring kept %d events, want 8", got)
	}
}

// TestConcurrentWritersSnapshot hammers the shared client ring and the
// worker rings from many goroutines while a reader snapshots
// continuously. Run under -race this validates the seqlock scheme:
// readers never block writers, and every event a snapshot returns is
// internally consistent (req encodes the expected arg).
func TestConcurrentWritersSnapshot(t *testing.T) {
	tr := NewTracer(4, 128)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			writer := WriterClient
			if g < 4 {
				writer = g // worker rings get one goroutine each
			}
			for i := 1; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				req := uint64(g)<<32 | uint64(i)
				tr.Record(writer, EvSubmit, req, int64(req&0xffff), int64(i))
			}
		}(g)
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	snaps := 0
	for time.Now().Before(deadline) {
		evs := tr.Snapshot()
		snaps++
		for _, e := range evs {
			if e.Kind != EvSubmit {
				t.Fatalf("torn event: kind %v", e.Kind)
			}
			if e.Arg != int64(e.Req&0xffff) {
				t.Fatalf("torn event: req %d arg %d", e.Req, e.Arg)
			}
		}
		for i := 1; i < len(evs); i++ {
			if evs[i].TS < evs[i-1].TS {
				t.Fatal("snapshot not sorted")
			}
		}
	}
	close(stop)
	wg.Wait()
	if snaps == 0 {
		t.Fatal("no snapshots taken")
	}
}

// TestRingLappedWriterNeverPublishesClaimedSlot: on a ring shared by
// several writers, a writer that laps a slow one lands on the slot the
// slow one is still filling. It must drop its event rather than fill and
// publish that slot, which would let Snapshot return the two writers'
// stores mixed as one valid event; and the slow writer, once lapped by
// a published event, must not overwrite it.
func TestRingLappedWriterNeverPublishesClaimedSlot(t *testing.T) {
	tr := NewTracer(1, 4)
	r := tr.ringFor(WriterClient)
	size := uint64(len(r.slots))

	// A slow writer takes ticket 0, claims its slot and has stored only
	// the timestamp when it loses the CPU.
	n := r.pos.Add(1) - 1
	s := &r.slots[n&(size-1)]
	claim := 2*(n+1) - 1
	if !s.seq.CompareAndSwap(0, claim) {
		t.Fatal("fresh slot not claimable")
	}
	s.ts.Store(111)

	// A fast writer laps it: its last ticket lands on the same slot.
	for i := uint64(1); i <= size; i++ {
		tr.Record(WriterClient, EvSubmit, 1000+i, int64(1000+i), int64(i))
	}
	if got := s.seq.Load(); got != claim {
		t.Fatalf("lapping writer took a slot mid-fill: seq %d, want the slow writer's claim %d", got, claim)
	}
	for _, e := range tr.Snapshot() {
		if e.Req == 1000+size {
			t.Fatalf("event published into a slot still being filled: %+v", e)
		}
	}

	// The slow writer finishes. Its ticket has been lapped, so Snapshot
	// skips the slot either way; every event it returns is whole.
	s.req.Store(7)
	s.meta.Store(uint64(EvSubmit)<<argBits | 7)
	s.seq.Store(claim + 1)
	for _, e := range tr.Snapshot() {
		if e.Kind != EvSubmit || e.Arg != int64(e.Req) {
			t.Fatalf("torn event: %+v", e)
		}
	}

	// The other way round: a writer whose ticket was lapped, and whose
	// slot a later lap has already published, must not overwrite it.
	stale := r.pos.Add(1) - 1
	for i := uint64(1); i <= size; i++ {
		tr.Record(WriterClient, EvSubmit, 2000+i, int64(2000+i), int64(i))
	}
	slot := &r.slots[stale&(size-1)]
	published := slot.seq.Load()
	if published != 2*(stale+size+1) {
		t.Fatalf("slot seq %d, want the lapping ticket's %d", published, 2*(stale+size+1))
	}
	r.write(stale, 222, EvSubmit, 9, 9)
	if got := slot.seq.Load(); got != published {
		t.Fatalf("lapped writer overwrote a newer event: seq %d, want %d", got, published)
	}
	if got := slot.req.Load(); got != 2000+size {
		t.Fatalf("lapped writer overwrote a newer event: req %d, want %d", got, 2000+size)
	}
	// The slot whose event was dropped in the first half is not wedged:
	// this lap published into it.
	var found bool
	for _, e := range tr.Snapshot() {
		found = found || e.Req == 2000+size-1
	}
	if !found {
		t.Fatal("a slot that once dropped an event never published again")
	}
}

// TestNetWriterRoundTrip: the net frontend has its own ring behind the
// client ring; the wire event kinds survive the seqlock round trip and
// never leak into the client, worker, or dispatcher rings.
func TestNetWriterRoundTrip(t *testing.T) {
	tr := NewTracer(2, 64)
	tr.Record(WriterNet, EvFrameRead, 7, 0, 1)
	tr.Record(WriterNet, EvParsed, 7, 0, 2)
	tr.Record(WriterNet, EvFlushQueued, 7, 0, 6)
	tr.Record(WriterNet, EvFlushed, 7, 3, 7)
	tr.Record(WriterClient, EvSubmit, 7, 0, 3)
	tr.Record(WriterDispatcher, EvDispatch, 7, 0, 4)
	tr.Record(1, EvStart, 7, 1, 5)
	byRing := map[int][]Event{}
	for _, e := range tr.Snapshot() {
		byRing[e.Ring] = append(byRing[e.Ring], e)
	}
	net := byRing[WriterNet]
	if len(net) != 4 {
		t.Fatalf("net ring events = %+v", net)
	}
	wantKinds := []Kind{EvFrameRead, EvParsed, EvFlushQueued, EvFlushed}
	for i, e := range net {
		if e.Kind != wantKinds[i] || e.Req != 7 {
			t.Fatalf("net event %d = %+v, want kind %v", i, e, wantKinds[i])
		}
	}
	if net[3].Arg != 3 {
		t.Fatalf("flushed batch-size arg = %d, want 3", net[3].Arg)
	}
	if len(byRing[WriterClient]) != 1 || len(byRing[WriterDispatcher]) != 1 || len(byRing[1]) != 1 {
		t.Fatalf("net events polluted other rings: %+v", byRing)
	}
}

// TestRecordAtRetroactive: Record keeps the writer's stamp, so a
// frame-read recorded late (at Submit, once the request has an id)
// still sorts before events that were stamped after it.
func TestRecordAtRetroactive(t *testing.T) {
	tr := NewTracer(1, 64)
	const gap = time.Millisecond
	const readAt = int64(5 * time.Second)
	tr.Record(WriterClient, EvSubmit, 5, 0, readAt+int64(gap)) // later stamp
	tr.Record(WriterNet, EvFrameRead, 5, 0, readAt)            // recorded last, happened first
	evs := tr.Snapshot()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Kind != EvFrameRead || evs[1].Kind != EvSubmit {
		t.Fatalf("retroactive event did not sort by its stamped time: %+v", evs)
	}
	if d := evs[1].TS - evs[0].TS; d != gap {
		t.Fatalf("stamped gap = %v, want %v", d, gap)
	}
}

// TestSnapshotTiesLifecycleOrder: events of one request that share a
// stamp sort in lifecycle order, whatever order their rings hold them
// in. A placed request stamps its submit, enqueue, dispatch and start
// with its arrival; a clock that holds a reading can give a whole slice
// (resume and yield) or a whole park (yield, requeue and resume) one
// stamp. Analyze then reads a zero interval for each, and its
// components still partition the total.
func TestSnapshotTiesLifecycleOrder(t *testing.T) {
	tr := NewTracer(2, 64)
	// Worker 0 runs the first slice [100, 200], then a park held at 200
	// and a slice held at 200, then a park [200, 300] and the last
	// slice [300, 400]. The worker ring is written first, so ring order
	// alone would put the start before the submit.
	tr.Record(0, EvStart, 7, 0, 100)
	tr.Record(0, EvYield, 7, 1, 200)
	tr.Record(0, EvRequeue, 7, 1, 200)
	tr.Record(1, EvYield, 7, 2, 200)
	tr.Record(1, EvResume, 7, 1, 200)
	tr.Record(1, EvRequeue, 7, 2, 200)
	tr.Record(0, EvComplete, 7, StatusOK, 400)
	tr.Record(0, EvResume, 7, 2, 300)
	tr.Record(WriterClient, EvDispatch, 7, 0, 100)
	tr.Record(WriterClient, EvEnqueueCentral, 7, 0, 100)
	tr.Record(WriterClient, EvSubmit, 7, 0, 100)
	var got []Kind
	for _, e := range tr.Snapshot() {
		got = append(got, e.Kind)
	}
	want := []Kind{EvSubmit, EvEnqueueCentral, EvDispatch, EvStart,
		EvYield, EvRequeue, EvResume, EvYield, EvRequeue, EvResume, EvComplete}
	if len(got) != len(want) {
		t.Fatalf("kinds %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("kinds %v, want %v", got, want)
		}
	}
	bds := Analyze(tr.Snapshot())
	if len(bds) != 1 {
		t.Fatalf("breakdowns %+v, want one", bds)
	}
	b := bds[0]
	if b.Partial || b.HandoffUS != 0 || b.QueueUS != 0 || b.ServiceUS != 0.2 ||
		b.PreemptedUS != 0.1 || b.Preemptions != 2 || b.TotalUS() != 0.3 {
		t.Fatalf("breakdown %+v, want handoff 0, queue 0, service 0.2µs, preempted 0.1µs, 2 preemptions", b)
	}
}

// TestNetWriterDistinct: the net writer id never collides with the
// dispatcher's, the client's or any worker's, and each of them records
// to a ring of its own.
func TestNetWriterDistinct(t *testing.T) {
	const workers = 3
	tr := NewTracer(workers, 64)
	writers := []int{WriterNet, WriterDispatcher, WriterClient}
	for w := 0; w < workers; w++ {
		writers = append(writers, w)
	}
	rings := map[*ring]int{}
	for _, w := range writers {
		if prev, ok := rings[tr.ringFor(w)]; ok {
			t.Fatalf("writers %d and %d share a ring", prev, w)
		}
		rings[tr.ringFor(w)] = w
	}
}

// TestDispatcherWriterRoundTrip: the dispatcher's events come back
// attributed to WriterDispatcher, and only to it.
func TestDispatcherWriterRoundTrip(t *testing.T) {
	tr := NewTracer(2, 64)
	tr.Record(WriterDispatcher, EvDispatch, 100, 1, 1)
	tr.Record(WriterClient, EvSubmit, 7, 0, 2)
	tr.Record(1, EvStart, 7, 1, 3)
	byRing := map[int][]Event{}
	for _, e := range tr.Snapshot() {
		byRing[e.Ring] = append(byRing[e.Ring], e)
	}
	if evs := byRing[WriterDispatcher]; len(evs) != 1 || evs[0].Req != 100 || evs[0].Arg != 1 {
		t.Fatalf("dispatcher ring events = %+v", evs)
	}
	if len(byRing[WriterClient]) != 1 || len(byRing[1]) != 1 || len(byRing) != 3 {
		t.Fatalf("rings polluted: %+v", byRing)
	}
}

func BenchmarkRecord(b *testing.B) {
	tr := NewTracer(1, 4096)
	b.RunParallel(func(pb *testing.PB) {
		i := uint64(0)
		for pb.Next() {
			i++
			tr.Record(WriterClient, EvSubmit, i, 0, int64(i))
		}
	})
}
