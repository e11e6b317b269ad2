package kv

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestGetPutDelete(t *testing.T) {
	s := New()
	if _, ok := s.Get([]byte("a")); ok {
		t.Fatal("empty store returned a value")
	}
	s.Put([]byte("a"), []byte("1"))
	v, ok := s.Get([]byte("a"))
	if !ok || string(v) != "1" {
		t.Fatalf("Get = %q %v, want 1 true", v, ok)
	}
	s.Put([]byte("a"), []byte("2"))
	if v, _ := s.Get([]byte("a")); string(v) != "2" {
		t.Fatalf("overwrite failed: %q", v)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	if !s.Delete([]byte("a")) {
		t.Fatal("Delete of present key returned false")
	}
	if _, ok := s.Get([]byte("a")); ok {
		t.Fatal("deleted key still readable")
	}
	if s.Delete([]byte("a")) {
		t.Fatal("double-delete returned true")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after delete, want 0", s.Len())
	}
}

func TestPutAfterDeleteRevives(t *testing.T) {
	s := New()
	s.Put([]byte("k"), []byte("v1"))
	s.Delete([]byte("k"))
	s.Put([]byte("k"), []byte("v2"))
	v, ok := s.Get([]byte("k"))
	if !ok || string(v) != "v2" {
		t.Fatalf("revived key = %q %v", v, ok)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestScanOrderAndBounds(t *testing.T) {
	s := New()
	keys := []string{"d", "a", "c", "e", "b"}
	for _, k := range keys {
		s.Put([]byte(k), []byte("v"+k))
	}
	s.Delete([]byte("c"))

	var got []string
	s.Scan([]byte("a"), nil, func(k, v []byte) bool {
		got = append(got, string(k))
		if string(v) != "v"+string(k) {
			t.Errorf("key %s has value %s", k, v)
		}
		return true
	})
	want := []string{"a", "b", "d", "e"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scan = %v, want %v", got, want)
	}

	got = nil
	s.Scan([]byte("b"), []byte("e"), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if fmt.Sprint(got) != fmt.Sprint([]string{"b", "d"}) {
		t.Fatalf("bounded scan = %v", got)
	}

	// Early stop.
	got = nil
	s.Scan(nil, nil, func(k, v []byte) bool {
		got = append(got, string(k))
		return len(got) < 2
	})
	if len(got) != 2 {
		t.Fatalf("early-stop scan visited %d keys", len(got))
	}
}

func TestScanBatchResume(t *testing.T) {
	s := New()
	for i := 0; i < 100; i++ {
		s.Put([]byte(fmt.Sprintf("k%03d", i)), []byte{byte(i)})
	}
	var got []string
	cursor := []byte(nil)
	rounds := 0
	for {
		cursor = s.ScanBatch(cursor, 7, func(k, v []byte) bool {
			got = append(got, string(k))
			return true
		})
		rounds++
		if cursor == nil {
			break
		}
	}
	if len(got) != 100 {
		t.Fatalf("batch scan visited %d keys, want 100", len(got))
	}
	if !sort.StringsAreSorted(got) {
		t.Fatal("batch scan out of order")
	}
	if rounds < 100/7 {
		t.Fatalf("only %d rounds for 100 keys at batch 7", rounds)
	}
}

func TestBatchAtomicApply(t *testing.T) {
	s := New()
	s.Put([]byte("gone"), []byte("x"))
	var b Batch
	b.Put([]byte("a"), []byte("1"))
	b.Put([]byte("b"), []byte("2"))
	b.Delete([]byte("gone"))
	s.Apply(&b)
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if _, ok := s.Get([]byte("gone")); ok {
		t.Fatal("batched delete did not apply")
	}
	if v, _ := s.Get([]byte("b")); string(v) != "2" {
		t.Fatal("batched put did not apply")
	}
}

// modelKeys are the reference model's keys, indexed by a cursor that
// wraps at 4096. Most are three hex digits, so a rising cursor is a
// rising key. Every 16th is a prefix of its neighbours (the empty key
// among them), and two in 16 are long: one leaves an arena block's tail
// unused, one is too long for the arena.
var modelKeys = func() [][]byte {
	keys := make([][]byte, 4096)
	for i := range keys {
		k := fmt.Appendf(nil, "%03x", i)
		switch i % 16 {
		case 0:
			k = k[:i%3]
		case 5:
			k = append(k, bytes.Repeat([]byte{'m'}, arenaBlock/5)...)
		case 9:
			k = append(k, bytes.Repeat([]byte{'l'}, arenaBlock)...)
		}
		keys[i] = k
	}
	return keys
}()

// refModel is the reference: a map for values and the keys sorted.
type refModel struct {
	vals map[string]string
	keys []string
}

func (m *refModel) put(k, v []byte) {
	if _, ok := m.vals[string(k)]; !ok {
		i, _ := slices.BinarySearch(m.keys, string(k))
		m.keys = slices.Insert(m.keys, i, string(k))
	}
	m.vals[string(k)] = string(v)
}

func (m *refModel) delete(k []byte) bool {
	i, ok := slices.BinarySearch(m.keys, string(k))
	if ok {
		m.keys = slices.Delete(m.keys, i, i+1)
		delete(m.vals, string(k))
	}
	return ok
}

// scan renders up to limit live pairs in [start, end) as "key=value".
func (m *refModel) scan(start, end []byte, limit int) []string {
	var out []string
	i, _ := slices.BinarySearch(m.keys, string(start))
	for ; i < len(m.keys) && len(out) < limit; i++ {
		if end != nil && m.keys[i] >= string(end) {
			break
		}
		out = append(out, m.keys[i]+"="+m.vals[m.keys[i]])
	}
	return out
}

// checkSplice checks the splice a put of key leaves: prev[0] holds key,
// and at every level prev[l] stands on that level at or below key, with
// its successor there above key — so the next put of a key just above
// this one needs no search.
func checkSplice(s *Store, key []byte) error {
	if s.prev[0] == s.head || !bytes.Equal(s.prev[0].key, key) {
		return fmt.Errorf("after put %.24q: splice starts at %.24q", key, s.prev[0].key)
	}
	for l, p := range s.prev {
		if p != s.head && (int(p.height) <= l || bytes.Compare(p.key, key) > 0) ||
			p.next[l] != nil && bytes.Compare(p.next[l].key, key) <= 0 {
			return fmt.Errorf("after put %.24q: level %d splice does not bracket it", key, l)
		}
	}
	return nil
}

// checkLevels checks the skiplist's shape: every level is in strictly
// rising key order and holds exactly the nodes at least that tall.
func checkLevels(s *Store) error {
	for l := 0; l < maxHeight; l++ {
		tall := 0
		for n := s.head.next[0]; n != nil; n = n.next[0] {
			if int(n.height) > l {
				tall++
			}
		}
		on := 0
		for n := s.head; n.next[l] != nil; n = n.next[l] {
			if int(n.next[l].height) <= l || n != s.head && bytes.Compare(n.key, n.next[l].key) >= 0 {
				return fmt.Errorf("level %d out of order or short node at %.24q", l, n.next[l].key)
			}
			on++
		}
		if on != tall {
			return fmt.Errorf("level %d links %d nodes, %d are that tall", l, on, tall)
		}
	}
	return nil
}

// checkStore runs the operations data encodes against a store and the
// reference model and returns the first disagreement. An operation is
// three bytes (ctl, arg, val). A ctl of 0xf0 or more sets the cursor's
// mode to ctl&7; any other ctl moves the cursor by the mode, then runs
// operation ctl%8 on the cursor's key. The modes are the orders a
// splice serves and misses: ascending, descending, two ascending runs
// interleaved, far jumps forward, random, the last key again, and
// dense runs up and down.
func checkStore(data []byte) error {
	s := New()
	m := &refModel{vals: map[string]string{}}
	mode, cur, alt := 0, 0, len(modelKeys)/2
	for ; len(data) >= 3; data = data[3:] {
		ctl, arg, val := data[0], int(data[1]), data[2]
		if ctl >= 0xf0 {
			mode = int(ctl & 7)
			continue
		}
		switch mode {
		case 0:
			cur += 1 + arg%4
		case 1:
			cur -= 1 + arg%4
		case 2:
			cur, alt = alt, cur+1+arg%4
		case 3:
			cur += 64 + arg*8
		case 4:
			cur = arg<<4 | int(val&15)
		case 6:
			cur++
		case 7:
			cur--
		}
		cur = (cur%len(modelKeys) + len(modelKeys)) % len(modelKeys)
		alt %= len(modelKeys)
		k, v := modelKeys[cur], []byte{val, byte(cur)}
		switch ctl % 8 {
		case 0, 1, 2:
			s.Put(k, v)
			m.put(k, v)
			if err := checkSplice(s, k); err != nil {
				return err
			}
		case 3:
			if got, want := s.Delete(k), m.delete(k); got != want {
				return fmt.Errorf("Delete(%.24q) = %v, want %v", k, got, want)
			}
		case 4:
			got, ok := s.Get(k)
			want, wok := m.vals[string(k)]
			if ok != wok || string(got) != want {
				return fmt.Errorf("Get(%.24q) = %.24q %v, want %.24q %v", k, got, ok, want, wok)
			}
		case 5:
			// A caller that appends to a key it was handed must
			// corrupt no other: the model checks every key after.
			var end []byte
			if arg%2 == 1 {
				end = modelKeys[(cur+arg)%len(modelKeys)]
			}
			limit := 1 + int(val%32)
			var got []string
			s.Scan(k, end, func(key, value []byte) bool {
				got = append(got, string(key)+"="+string(value))
				key = append(key, '!')
				return len(got) < limit && key[len(key)-1] == '!'
			})
			if want := m.scan(k, end, limit); !slices.Equal(got, want) {
				return fmt.Errorf("Scan(%.24q, %.24q) = %.24q, want %.24q", k, end, got, want)
			}
		case 6:
			// Up to three batches of arg%9 (0: the default), resumed.
			var got []string
			at := k
			for round := 0; round < 3 && at != nil; round++ {
				at = s.ScanBatch(at, arg%9, func(key, value []byte) bool {
					got = append(got, string(key)+"="+string(value))
					return true
				})
			}
			batch := arg % 9
			if batch == 0 {
				batch = 64
			}
			if want := m.scan(k, nil, 3*batch); !slices.Equal(got, want) {
				return fmt.Errorf("ScanBatch from %.24q by %d = %.24q, want %.24q", k, arg%9, got, want)
			}
		case 7:
			// Puts on a rising run from the cursor, then deletes of
			// the cursor's key and the interleaved cursor's.
			var b Batch
			var last []byte
			for i := 0; i <= int(val%4); i++ {
				last = modelKeys[(cur+i)%len(modelKeys)]
				b.Put(last, v)
				m.put(last, v)
			}
			ak := modelKeys[alt]
			b.Delete(k)
			b.Delete(ak)
			s.Apply(&b)
			m.delete(k)
			m.delete(ak)
			if err := checkSplice(s, last); err != nil {
				return err
			}
		}
		if s.Len() != len(m.keys) {
			return fmt.Errorf("Len = %d, want %d", s.Len(), len(m.keys))
		}
	}
	var got []string
	s.Scan(nil, nil, func(key, value []byte) bool {
		got = append(got, string(key)+"="+string(value))
		return true
	})
	if want := m.scan(nil, nil, len(m.keys)); !slices.Equal(got, want) {
		return fmt.Errorf("full scan = %.24q, want %.24q", got, want)
	}
	return checkLevels(s)
}

// Property: the store agrees with a sorted-map reference model under
// random operation sequences that run in every order checkStore knows.
func TestStoreMatchesReferenceModel(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(args []reflect.Value, r *rand.Rand) {
			data := make([]byte, 3*r.Intn(1500))
			r.Read(data)
			args[0] = reflect.ValueOf(data)
		},
	}
	prop := func(data []byte) bool {
		if err := checkStore(data); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// FuzzStore runs checkStore on fuzzed operation sequences; its seed
// corpus is under testdata/fuzz/FuzzStore.
func FuzzStore(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*2048 {
			data = data[:3*2048]
		}
		if err := checkStore(data); err != nil {
			t.Fatal(err)
		}
	})
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	s := New()
	for i := 0; i < 1000; i++ {
		s.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("v"))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := []byte(fmt.Sprintf("k%04d", r.Intn(1000)))
				switch r.Intn(3) {
				case 0:
					s.Get(k)
				case 1:
					s.Put(k, []byte("w"))
				case 2:
					s.Scan(k, nil, func(_, _ []byte) bool { return false })
				}
			}
		}(int64(g))
	}
	for i := 0; i < 50000; i++ {
		s.Get([]byte("k0500"))
	}
	close(stop)
	wg.Wait()
	// Deleting every key must leave an empty store regardless of the
	// interleaving that happened above.
	for i := 0; i < 1000; i++ {
		s.Delete([]byte(fmt.Sprintf("k%04d", i)))
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", s.Len())
	}
}

func TestValueIsolation(t *testing.T) {
	s := New()
	key := []byte("k")
	val := []byte("mutable")
	s.Put(key, val)
	val[0] = 'X' // caller mutates its buffer after Put
	got, _ := s.Get(key)
	if !bytes.Equal(got, []byte("mutable")) {
		t.Fatalf("store aliased caller's buffer: %q", got)
	}
}

// benchKeys are kv_wire's and kvd's keys: 15 000 of them, named as the
// benchmark names them.
func benchKeys() [][]byte {
	keys := make([][]byte, 15000)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key%08d", i))
	}
	return keys
}

// benchFilled returns a store holding benchKeys' keys and a fixed random
// order to visit them in, as the benchmark's kv.get_ns and kv.put_ns
// probes do.
func benchFilled() (*Store, [][]byte, []int) {
	s := New()
	keys := benchKeys()
	for _, k := range keys {
		s.Put(k, bytes.Repeat([]byte("v"), 64))
	}
	return s, keys, rand.New(rand.NewSource(1)).Perm(len(keys))
}

// BenchmarkGet reads every key once per 15 000 ops, in benchFilled's order.
func BenchmarkGet(b *testing.B) {
	s, keys, order := benchFilled()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Get(keys[order[i%len(order)]])
	}
}

// BenchmarkPut overwrites every key once per 15 000 ops, in benchFilled's
// order: a put the last put's splice seldom serves.
func BenchmarkPut(b *testing.B) {
	s, keys, order := benchFilled()
	v := bytes.Repeat([]byte("v"), 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Put(keys[order[i%len(order)]], v)
	}
}

// BenchmarkLoad fills a fresh store with 15 000 keys in ascending order
// per op: kv_wire's set-up and kvd's -keys preload.
func BenchmarkLoad(b *testing.B) {
	benchLoad(b, benchKeys())
}

// BenchmarkLoadRandom is BenchmarkLoad's fill in a fixed random order.
func BenchmarkLoadRandom(b *testing.B) {
	keys := benchKeys()
	rand.New(rand.NewSource(1)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	benchLoad(b, keys)
}

func benchLoad(b *testing.B, keys [][]byte) {
	v := bytes.Repeat([]byte("v"), 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New()
		for _, k := range keys {
			s.Put(k, v)
		}
	}
}

func BenchmarkScanFull(b *testing.B) {
	s := New()
	for i := 0; i < 15000; i++ {
		s.Put([]byte(fmt.Sprintf("key%05d", i)), bytes.Repeat([]byte("v"), 16))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		s.Scan(nil, nil, func(_, _ []byte) bool { n++; return true })
		if n != 15000 {
			b.Fatalf("scan saw %d keys", n)
		}
	}
}
