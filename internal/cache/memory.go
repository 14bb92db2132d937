// Package cache provides the storage machinery behind the public
// synthesis result cache: an in-memory LRU with byte-size accounting
// under one budget, a versioned corruption-tolerant on-disk store, and
// a context-aware singleflight group that coalesces concurrent
// identical computations. Keys are content hashes computed by the
// caller; values are opaque to this package.
package cache

import (
	"container/list"
	"encoding/hex"
	"sync"
)

// Key is a content-addressed cache key (a SHA-256 of the canonical
// input fingerprint, computed by the caller).
type Key [32]byte

// Hex renders the key as lowercase hex.
func (k Key) Hex() string { return hex.EncodeToString(k[:]) }

// MemoryStats is a point-in-time snapshot of a Memory store.
type MemoryStats struct {
	Entries   int   // live entries
	Bytes     int64 // accounted bytes
	MaxBytes  int64 // configured budget
	Evictions int64 // entries evicted to satisfy the budget
}

// Memory is an LRU keyed by Key with per-entry byte-size accounting
// against a single MaxBytes budget. All methods are safe for
// concurrent use.
type Memory struct {
	mu        sync.Mutex
	maxBytes  int64
	bytes     int64
	evictions int64
	entries   map[Key]*list.Element
	lru       *list.List // front = most recently used
}

type memEntry struct {
	key   Key
	value any
	size  int64
}

// DefaultMaxBytes is the Memory budget when the caller passes 0.
const DefaultMaxBytes = 256 << 20

// NewMemory returns a store that holds at most maxBytes of accounted
// entry sizes (0 selects DefaultMaxBytes).
func NewMemory(maxBytes int64) *Memory {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	return &Memory{maxBytes: maxBytes, entries: make(map[Key]*list.Element), lru: list.New()}
}

// Get returns the value stored under k and marks it most recently used.
func (m *Memory) Get(k Key) (any, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.entries[k]
	if !ok {
		return nil, false
	}
	m.lru.MoveToFront(el)
	return el.Value.(*memEntry).value, true
}

// Put stores value under k with the given accounted size, evicting
// least-recently-used entries until the budget is respected. A value
// larger than the whole budget is not stored at all (storing it would
// immediately evict everything else for a single entry that itself
// cannot stay). It returns how many entries were evicted and the net
// change in accounted bytes, so callers can maintain process-wide
// gauges without taking a snapshot.
func (m *Memory) Put(k Key, value any, size int64) (evicted int, bytesDelta int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if size > m.maxBytes {
		return 0, 0
	}
	before := m.bytes
	if el, ok := m.entries[k]; ok {
		e := el.Value.(*memEntry)
		m.bytes += size - e.size
		e.value, e.size = value, size
		m.lru.MoveToFront(el)
	} else {
		m.entries[k] = m.lru.PushFront(&memEntry{key: k, value: value, size: size})
		m.bytes += size
	}
	for m.bytes > m.maxBytes {
		back := m.lru.Back()
		if back == nil {
			break
		}
		e := back.Value.(*memEntry)
		m.lru.Remove(back)
		delete(m.entries, e.key)
		m.bytes -= e.size
		m.evictions++
		evicted++
	}
	return evicted, m.bytes - before
}

// Stats snapshots the store's occupancy and eviction counters.
func (m *Memory) Stats() MemoryStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MemoryStats{Entries: len(m.entries), Bytes: m.bytes, MaxBytes: m.maxBytes, Evictions: m.evictions}
}
