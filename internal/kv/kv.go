// Package kv implements the in-memory ordered key-value store that backs
// the live examples: a LevelDB-style memtable (a skiplist behind a
// sync.RWMutex: writers take the write lock and readers the read lock,
// where LevelDB's readers take none) supporting point queries
// (Get/Put/Delete) and range queries (Scan), the two request classes of
// the paper's LevelDB evaluation (§5.3).
//
// Point operations hold the lock briefly; a long scan can be cut into
// ScanBatch calls, each holding the read lock for one batch. The store
// knows nothing of preemption: a handler that must not be preempted while
// it holds the lock brackets the call with ctx.BeginNoPreempt/EndNoPreempt
// (§3.1's safety-first preemption).
//
// Nodes are carved from a slab and key bytes from an append-only arena,
// as in RocksDB's InlineSkipList: no node is ever unlinked (Delete leaves
// a tombstone), so a node and its key live as long as the store, as they
// did when each had an allocation of its own. Values are copied one
// allocation per Put, so an overwrite lets the old value be collected.
package kv

import (
	"bytes"
	"sync"

	"concord/internal/sim"
)

const (
	maxHeight = 12
	branching = 4
	// slabNodes nodes make one slab chunk: 62 × 152 B, plus the 8-byte
	// header Go puts on an object with pointers over 512 B, fills the
	// 9472-byte size class to within 40 B.
	slabNodes = 62
	// arenaBlock bytes make one key-arena block. A key longer than a
	// quarter block gets its own allocation, so a block's unused tail is
	// under a quarter of it.
	arenaBlock = 4096
)

type node struct {
	key   []byte // in the arena: cap == len, so a caller's append copies
	value []byte
	next  [maxHeight]*node
	// height and tombstone (a deleted key, kept until compaction drops
	// it) share a word.
	height    uint8
	tombstone bool
}

// Store is an ordered in-memory key-value store.
type Store struct {
	mu   sync.RWMutex
	head *node
	rng  *sim.RNG
	len  int // live (non-tombstone) keys
	// The rest is written under mu's write lock only. prev is the splice
	// the last put left: at each level, the node the next insert links
	// after if its key lies just above the last put's.
	prev  [maxHeight]*node
	slab  []node // unused nodes of the current chunk
	arena []byte // the current key block; cap − len bytes are free
}

// New returns an empty store.
func New() *Store {
	s := &Store{
		head: &node{height: maxHeight},
		rng:  sim.NewRNG(0x9e3779b97f4a7c15),
	}
	for l := range s.prev {
		s.prev[l] = s.head
	}
	return s
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

// put stores value under key. A splice bracketing key at level 0 brackets
// it at every level — each level's bracket is nested in the one above —
// so when the last put's splice brackets key, the insert needs no search.
func (s *Store) put(key, value []byte) {
	n := s.prev[0].next[0]
	if bytes.Compare(s.prev[0].key, key) >= 0 || n != nil && bytes.Compare(key, n.key) > 0 {
		n = s.findGreaterOrEqual(key, &s.prev)
	}
	if n != nil && bytes.Equal(n.key, key) {
		if n.tombstone {
			n.tombstone = false
			s.len++
		}
	} else {
		n = s.newNode(key)
		for l := 0; l < int(n.height); l++ {
			n.next[l] = s.prev[l].next[l]
			s.prev[l].next[l] = n
		}
		s.len++
	}
	n.value = append([]byte(nil), value...)
	// The splice now brackets the keys just above key: n is its left
	// edge on each level n stands on, and the brackets above n's height
	// hold key, so they still nest.
	for l := 0; l < int(n.height); l++ {
		s.prev[l] = n
	}
}

// newNode takes a node from the slab and copies key into the arena.
func (s *Store) newNode(key []byte) *node {
	if len(s.slab) == 0 {
		s.slab = make([]node, slabNodes)
	}
	n := &s.slab[0]
	s.slab = s.slab[1:]
	n.height = uint8(s.randomHeight())
	if len(key) > cap(s.arena)-len(s.arena) {
		if len(key) > arenaBlock/4 {
			n.key = append(make([]byte, 0, len(key)), key...)
			return n
		}
		s.arena = make([]byte, 0, arenaBlock)
	}
	off := len(s.arena)
	s.arena = append(s.arena, key...)
	n.key = s.arena[off:len(s.arena):len(s.arena)]
	return n
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
