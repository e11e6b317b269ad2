package kv

import (
	"bytes"
	"fmt"
	"math/rand"
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

// Property: the store agrees with a map reference model under random
// operation sequences.
func TestStoreMatchesReferenceModel(t *testing.T) {
	type opT struct {
		Kind  uint8
		Key   uint8
		Value uint8
	}
	prop := func(ops []opT) bool {
		s := New()
		ref := map[string]string{}
		for _, op := range ops {
			k := []byte{op.Key % 32}
			v := []byte{op.Value}
			switch op.Kind % 3 {
			case 0:
				s.Put(k, v)
				ref[string(k)] = string(v)
			case 1:
				got := s.Delete(k)
				_, want := ref[string(k)]
				if got != want {
					return false
				}
				delete(ref, string(k))
			case 2:
				got, ok := s.Get(k)
				want, wok := ref[string(k)]
				if ok != wok || (ok && string(got) != want) {
					return false
				}
			}
		}
		if s.Len() != len(ref) {
			return false
		}
		// Full scan equals the sorted reference.
		var keys []string
		s.Scan(nil, nil, func(k, v []byte) bool {
			keys = append(keys, string(k))
			if ref[string(k)] != string(v) {
				keys = append(keys, "MISMATCH")
			}
			return true
		})
		if len(keys) != len(ref) || !sort.StringsAreSorted(keys) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
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

func BenchmarkGet(b *testing.B) {
	s := New()
	for i := 0; i < 15000; i++ {
		s.Put([]byte(fmt.Sprintf("key%05d", i)), bytes.Repeat([]byte("v"), 64))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Get([]byte("key07500"))
	}
}

func BenchmarkPut(b *testing.B) {
	s := New()
	keys := make([][]byte, 4096)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key%05d", i))
	}
	v := bytes.Repeat([]byte("v"), 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Put(keys[i%len(keys)], v)
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
