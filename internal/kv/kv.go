// Package kv implements the in-memory ordered key-value store that backs
// the live examples: a LevelDB-style memtable (concurrent-read skiplist
// under a mutex for writes) supporting point queries (Get/Put/Delete) and
// range queries (Scan), the two request classes of the paper's LevelDB
// evaluation (§5.3).
//
// Like LevelDB, point operations take the store's mutex briefly while
// scans iterate a consistent view without blocking writers for the whole
// scan. The store knows nothing of preemption: a handler that must not be
// preempted while it holds the mutex brackets the call with
// ctx.BeginNoPreempt/EndNoPreempt (§3.1's safety-first preemption).
package kv

import (
	"bytes"
	"sync"

	"concord/internal/sim"
)

const (
	maxHeight = 12
	branching = 4
)

type node struct {
	key   []byte
	value []byte
	// tombstone marks deleted keys until compaction drops them.
	tombstone bool
	next      [maxHeight]*node
	height    int
}

// Store is an ordered in-memory key-value store.
type Store struct {
	mu   sync.RWMutex
	head *node
	rng  *sim.RNG
	len  int // live (non-tombstone) keys
}

// New returns an empty store.
func New() *Store {
	return &Store{
		head: &node{height: maxHeight},
		rng:  sim.NewRNG(0x9e3779b97f4a7c15),
	}
}

func (s *Store) randomHeight() int {
	h := 1
	for h < maxHeight && s.rng.Intn(branching) == 0 {
		h++
	}
	return h
}

// findGreaterOrEqual returns the first node with key >= target, filling
// prev with the rightmost node before it at every level.
func (s *Store) findGreaterOrEqual(key []byte, prev *[maxHeight]*node) *node {
	x := s.head
	for level := maxHeight - 1; level >= 0; level-- {
		for x.next[level] != nil && bytes.Compare(x.next[level].key, key) < 0 {
			x = x.next[level]
		}
		if prev != nil {
			prev[level] = x
		}
	}
	return x.next[0]
}

// Get returns the value stored for key. The returned slice must not be
// modified by the caller.
func (s *Store) Get(key []byte) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := s.findGreaterOrEqual(key, nil)
	if n == nil || n.tombstone || !bytes.Equal(n.key, key) {
		return nil, false
	}
	return n.value, true
}

// Put stores value under key, replacing any existing value. The store
// keeps its own copies of key and value.
func (s *Store) Put(key, value []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.put(key, value)
}

func (s *Store) put(key, value []byte) {
	var prev [maxHeight]*node
	n := s.findGreaterOrEqual(key, &prev)
	if n != nil && bytes.Equal(n.key, key) {
		if n.tombstone {
			n.tombstone = false
			s.len++
		}
		n.value = append([]byte(nil), value...)
		return
	}
	h := s.randomHeight()
	nn := &node{
		key:    append([]byte(nil), key...),
		value:  append([]byte(nil), value...),
		height: h,
	}
	for level := 0; level < h; level++ {
		nn.next[level] = prev[level].next[level]
		prev[level].next[level] = nn
	}
	s.len++
}

// Delete removes key. It reports whether the key was present.
func (s *Store) Delete(key []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.findGreaterOrEqual(key, nil)
	if n == nil || n.tombstone || !bytes.Equal(n.key, key) {
		return false
	}
	n.tombstone = true
	n.value = nil
	s.len--
	return true
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.len
}

// Scan visits every live key in [start, end) in order, calling fn for
// each; fn returning false stops the scan. A nil end scans to the last
// key. The scan holds the store's read lock, so fn must be fast — or the
// caller must poll for preemption between batches via ScanBatch.
func (s *Store) Scan(start, end []byte, fn func(key, value []byte) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := s.findGreaterOrEqual(start, nil)
	for n != nil {
		if end != nil && bytes.Compare(n.key, end) >= 0 {
			return
		}
		if !n.tombstone {
			if !fn(n.key, n.value) {
				return
			}
		}
		n = n.next[0]
	}
}

// ScanBatch visits live keys starting at start, up to batch of them, and
// returns the key to resume from (nil when the scan is complete). It lets
// a cooperative runtime interleave preemption polls between batches
// instead of holding the read lock for a whole database scan.
func (s *Store) ScanBatch(start []byte, batch int, fn func(key, value []byte) bool) (resume []byte) {
	if batch <= 0 {
		batch = 64
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := s.findGreaterOrEqual(start, nil)
	seen := 0
	for n != nil {
		if seen == batch {
			return append([]byte(nil), n.key...)
		}
		if !n.tombstone {
			if !fn(n.key, n.value) {
				return nil
			}
			seen++
		}
		n = n.next[0]
	}
	return nil
}

// Batch applies a set of writes atomically under one lock acquisition.
type Batch struct {
	puts    [][2][]byte
	deletes [][]byte
}

// Put queues a write into the batch.
func (b *Batch) Put(key, value []byte) {
	b.puts = append(b.puts, [2][]byte{key, value})
}

// Delete queues a deletion into the batch.
func (b *Batch) Delete(key []byte) {
	b.deletes = append(b.deletes, key)
}

// Apply runs the batch against the store.
func (s *Store) Apply(b *Batch) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range b.puts {
		s.put(p[0], p[1])
	}
	for _, k := range b.deletes {
		n := s.findGreaterOrEqual(k, nil)
		if n != nil && !n.tombstone && bytes.Equal(n.key, k) {
			n.tombstone = true
			n.value = nil
			s.len--
		}
	}
}
