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
	tr.Record(0, EvStart, 7, 3)
	tr.Record(1, EvYield, 8, 0)
	tr.Record(WriterDispatcher, EvDispatch, 7, 1)
	tr.Record(WriterClient, EvSubmit, 9, -2)
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
		if evs[i].TS < evs[i-1].TS {
			t.Fatalf("snapshot not time-ordered: %+v", evs)
		}
	}
}

// TestRingWraparound overfills one writer's ring and checks the
// snapshot keeps only the newest events, all intact.
func TestRingWraparound(t *testing.T) {
	tr := NewTracer(1, 8) // ring capacity 8
	const total = 20
	for i := 1; i <= total; i++ {
		tr.Record(0, EvComplete, uint64(i), int64(i))
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
		tr.Record(0, EvSubmit, uint64(i+1), 0)
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
				tr.Record(writer, EvSubmit, req, int64(req&0xffff))
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
		tr.Record(WriterClient, EvSubmit, 1000+i, int64(1000+i))
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
		tr.Record(WriterClient, EvSubmit, 2000+i, int64(2000+i))
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
// never leak into the client, worker, or shard-dispatcher rings.
func TestNetWriterRoundTrip(t *testing.T) {
	tr := NewTracerSharded(2, 2, 64)
	tr.Record(WriterNet, EvFrameRead, 7, 0)
	tr.Record(WriterNet, EvParsed, 7, 0)
	tr.Record(WriterNet, EvFlushQueued, 7, 0)
	tr.Record(WriterNet, EvFlushed, 7, 3)
	tr.Record(WriterClient, EvSubmit, 7, 0)
	tr.Record(DispatcherWriter(1), EvDispatch, 7, 0)
	tr.Record(1, EvStart, 7, 1)
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
	if len(byRing[WriterClient]) != 1 || len(byRing[DispatcherWriter(1)]) != 1 || len(byRing[1]) != 1 {
		t.Fatalf("net events polluted other rings: %+v", byRing)
	}
}

// TestRecordAtRetroactive: RecordAt stamps the caller's timestamp, so a
// frame-read recorded late (at Submit, once the request has an id)
// still sorts before events that happened after it on the wall clock.
func TestRecordAtRetroactive(t *testing.T) {
	tr := NewTracer(1, 64)
	readAt := time.Now()
	time.Sleep(time.Millisecond)
	tr.Record(WriterClient, EvSubmit, 5, 0)           // later wall time
	tr.RecordAt(WriterNet, EvFrameRead, 5, 0, readAt) // recorded last, happened first
	evs := tr.Snapshot()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Kind != EvFrameRead || evs[1].Kind != EvSubmit {
		t.Fatalf("retroactive event did not sort by its stamped time: %+v", evs)
	}
	if d := evs[1].TS - evs[0].TS; d < time.Millisecond/2 {
		t.Fatalf("stamped gap = %v, want ≈1ms", d)
	}
}

// TestNetWriterDistinct: the net writer id must never collide with a
// shard dispatcher's, and the shard decoder must not claim it.
func TestNetWriterDistinct(t *testing.T) {
	for s := 0; s < 1<<10; s++ {
		if DispatcherWriter(s) == WriterNet {
			t.Fatalf("DispatcherWriter(%d) collides with WriterNet", s)
		}
	}
	if got := dispatcherShard(WriterNet); got != -1 {
		t.Fatalf("dispatcherShard(WriterNet) = %d, want -1", got)
	}
}

func TestDispatcherWriterRoundTrip(t *testing.T) {
	seen := map[int]bool{}
	for s := 0; s < 8; s++ {
		w := DispatcherWriter(s)
		if w >= 0 || w == WriterClient || seen[w] {
			t.Fatalf("DispatcherWriter(%d) = %d collides", s, w)
		}
		seen[w] = true
		if got := dispatcherShard(w); got != s {
			t.Fatalf("dispatcherShard(DispatcherWriter(%d)) = %d", s, got)
		}
	}
	if DispatcherWriter(0) != WriterDispatcher {
		t.Fatal("shard 0 must keep the historical dispatcher writer id")
	}
	if dispatcherShard(WriterClient) != -1 || dispatcherShard(3) != -1 {
		t.Fatal("dispatcherShard must reject non-dispatcher writers")
	}
}

// TestShardedTracerRings: every shard dispatcher is its own writer with
// its own ring; events come back attributed to the right shard and the
// client ring still works behind the shard block.
func TestShardedTracerRings(t *testing.T) {
	tr := NewTracerSharded(2, 3, 64)
	if tr.Workers() != 2 || tr.Shards() != 3 {
		t.Fatalf("dims = %d workers %d shards", tr.Workers(), tr.Shards())
	}
	for s := 0; s < 3; s++ {
		tr.Record(DispatcherWriter(s), EvDispatch, uint64(100+s), int64(s))
	}
	tr.Record(WriterClient, EvSubmit, 7, 0)
	tr.Record(1, EvStart, 7, 1)
	byRing := map[int][]Event{}
	for _, e := range tr.Snapshot() {
		byRing[e.Ring] = append(byRing[e.Ring], e)
	}
	for s := 0; s < 3; s++ {
		evs := byRing[DispatcherWriter(s)]
		if len(evs) != 1 || evs[0].Req != uint64(100+s) || evs[0].Arg != int64(s) {
			t.Fatalf("shard %d ring events = %+v", s, evs)
		}
	}
	if len(byRing[WriterClient]) != 1 || len(byRing[1]) != 1 {
		t.Fatalf("client/worker rings polluted: %+v", byRing)
	}
}

// TestShardedConcurrentDispatcherWriters drives all shard dispatcher
// rings concurrently under -race: the single-writer-per-ring contract
// must hold with the shard writers, not just the historical three.
func TestShardedConcurrentDispatcherWriters(t *testing.T) {
	const shards = 4
	tr := NewTracerSharded(1, shards, 128)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 1; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tr.Record(DispatcherWriter(s), EvDispatch, uint64(s)<<32|uint64(i), int64(s))
			}
		}(s)
	}
	deadline := time.Now().Add(100 * time.Millisecond)
	for time.Now().Before(deadline) {
		for _, e := range tr.Snapshot() {
			if int64(e.Req>>32) != e.Arg {
				t.Fatalf("event attributed to wrong shard: %+v", e)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func BenchmarkRecord(b *testing.B) {
	tr := NewTracer(1, 4096)
	b.RunParallel(func(pb *testing.PB) {
		i := uint64(0)
		for pb.Next() {
			i++
			tr.Record(WriterClient, EvSubmit, i, 0)
		}
	})
}
